// Timeline trace recorder.
//
// Components emit (time, category, subject, detail, value) records; the
// Figure 4 bench uses this to show the request -> opportunity -> complete
// sequence of p-state changes, and tests use it to assert event ordering.
//
// Storage is structure-of-arrays: times and values in flat vectors,
// category/subject interned (they are low-cardinality: "pstate"/"cpu3"
// style tags), details appended to one grow-by-doubling byte arena. A
// recorded sample therefore costs no per-record string allocations, and
// render() walks the columns without materializing row objects.
// `records()`/`filter()` still hand out owning TraceRecord rows for tests
// and offline analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace hsw::sim {

/// Owning row, materialized on demand (tests, offline filtering).
struct TraceRecord {
    util::Time when;
    std::string category;  // e.g. "pstate", "cstate", "rapl"
    std::string subject;   // e.g. "socket0.core3"
    std::string detail;    // free-form, e.g. "request 12->13"
    double value = 0.0;
};

/// Non-owning row view -- what observers and serializers see. Valid only
/// for the duration of the observer call / until the trace mutates.
struct TraceView {
    util::Time when;
    std::string_view category;
    std::string_view subject;
    std::string_view detail;
    double value = 0.0;

    TraceView() = default;
    TraceView(util::Time w, std::string_view c, std::string_view s, std::string_view d,
              double v)
        : when{w}, category{c}, subject{s}, detail{d}, value{v} {}
    TraceView(const TraceRecord& r)  // NOLINT(*-explicit-*): same row, borrowed
        : when{r.when}, category{r.category}, subject{r.subject}, detail{r.detail},
          value{r.value} {}
};

class Trace {
public:
    using Observer = std::function<void(const TraceView&)>;
    using ObserverId = std::uint64_t;

    /// One (time, value) pair for bulk appends.
    struct Sample {
        util::Time when;
        double value = 0.0;
    };

    void enable(bool on = true) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Install a tap that sees every record as it is emitted, even while
    /// recording is disabled (the analysis layer audits the event stream
    /// without paying for record storage). Multiple observers coexist --
    /// registration never displaces another component's tap, so an audit
    /// checker and an engine metrics probe can watch the same node. Each
    /// observer belongs to this Trace (and therefore to one Node): nodes
    /// owned by different worker threads never share observer state.
    ObserverId add_observer(Observer observer) {
        observers_.emplace_back(next_observer_id_, std::move(observer));
        return next_observer_id_++;
    }

    /// Remove one observer by the id add_observer returned. Unknown ids
    /// are ignored (the observer may already be gone).
    void remove_observer(ObserverId id) {
        std::erase_if(observers_, [id](const auto& o) { return o.first == id; });
    }

    [[nodiscard]] std::size_t observer_count() const { return observers_.size(); }

    void record(util::Time when, std::string_view category, std::string_view subject,
                std::string_view detail, double value = 0.0);

    /// Bulk append: `samples.size()` records sharing one category/subject/
    /// detail tag. Interns the tags once and grows each column once --
    /// the path for components that batch samples (meters, sweeps) instead
    /// of tracing point-wise.
    void append_n(std::string_view category, std::string_view subject,
                  std::string_view detail, std::span<const Sample> samples);

    /// Pre-size the columns (records) and the detail arena (bytes).
    void reserve(std::size_t records, std::size_t detail_bytes = 0);

    [[nodiscard]] std::size_t size() const { return whens_.size(); }
    [[nodiscard]] bool empty() const { return whens_.empty(); }

    /// Borrowing access to record `i` (0 <= i < size()).
    [[nodiscard]] TraceView view(std::size_t i) const;

    /// All records, materialized as owning rows in time order.
    [[nodiscard]] std::vector<TraceRecord> records() const;

    /// All records of one category, in time order.
    [[nodiscard]] std::vector<TraceRecord> filter(std::string_view category) const;

    /// All records of one category and subject.
    [[nodiscard]] std::vector<TraceRecord> filter(std::string_view category,
                                                  std::string_view subject) const;

    void clear();

    /// Render as a readable timeline ("[  123.456 us] pstate socket0.core3 ...").
    [[nodiscard]] std::string render() const;

private:
    using TagId = std::uint32_t;

    TagId intern(std::string_view tag);
    void append_row(util::Time when, TagId category, TagId subject,
                    std::string_view detail, double value);
    [[nodiscard]] std::string_view detail_at(std::size_t i) const;

    bool enabled_ = false;
    ObserverId next_observer_id_ = 1;
    std::vector<std::pair<ObserverId, Observer>> observers_;

    // Columns (SoA). detail_ends_[i] is the arena offset one past record
    // i's detail bytes; record i's detail starts at detail_ends_[i - 1].
    std::vector<util::Time> whens_;
    std::vector<double> values_;
    std::vector<TagId> categories_;
    std::vector<TagId> subjects_;
    std::vector<std::uint32_t> detail_ends_;
    std::vector<char> detail_arena_;

    // Tag interner: low cardinality, linear probe beats a hash map here.
    std::vector<std::string> tags_;
};

}  // namespace hsw::sim
