#include "obs/accesslog.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hsw::obs::accesslog {

namespace {

static_assert(std::is_trivially_copyable_v<Record>,
              "records cross the ring as raw atomic words");

constexpr std::size_t kRecordWords = (sizeof(Record) + 7) / 8;

/// One ring slot: a seqlock stamp plus the record as atomic words, so
/// producer/consumer overlap is defined behavior (torn copies are
/// detected by the stamp and counted as drops, never surfaced).
struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = empty/busy, ticket+1 = stable
    std::atomic<std::uint64_t> words[kRecordWords];
};

struct Ring {
    std::unique_ptr<Slot[]> slots;
    std::size_t mask = 0;           // capacity - 1 (power of two)
    std::atomic<std::uint64_t> head{0};  // tickets issued
    std::atomic<std::uint64_t> lost{0};  // overwritten-unread + torn reads
    util::Mutex drain_mu;
    std::uint64_t cursor GUARDED_BY(drain_mu) = 0;
};

std::atomic<bool> g_enabled{false};
std::size_t g_capacity = 4096;
char g_identity[24] = {};

std::atomic<std::uint64_t> g_head_sample_permille{1000};
std::atomic<std::uint64_t> g_slow_us{0};
std::atomic<std::uint64_t> g_sample_walk{0x5EEDACCE551061ULL};

Ring& ring() {
    static Ring r;
    if (!r.slots) {
        std::size_t cap = 64;
        while (cap < g_capacity) cap <<= 1;
        r.slots = std::make_unique<Slot[]>(cap);
        r.mask = cap - 1;
    }
    return r;
}

std::uint64_t now_ns() {
    static const auto t0 = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/// Validated seqlock read of one slot; false = torn or not yet stable.
/// Acquire loads of the record words keep the second sequence load after
/// them (a fence would do the same, but TSan does not model fences). Only
/// the drain thread reads, so the stronger loads cost nothing that matters.
bool read_slot(const Slot& s, std::uint64_t ticket, Record& out) {
    if (s.seq.load(std::memory_order_acquire) != ticket + 1) return false;
    std::uint64_t words[kRecordWords];
    for (std::size_t w = 0; w < kRecordWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_acquire);
    }
    if (s.seq.load(std::memory_order_relaxed) != ticket + 1) return false;
    std::memcpy(&out, words, sizeof(Record));
    return true;
}

}  // namespace

void set_enabled(bool on) {
    if (on) {
        Ring& r = ring();
        util::LockGuard lock{r.drain_mu};
        r.head.store(0, std::memory_order_relaxed);
        r.lost.store(0, std::memory_order_relaxed);
        r.cursor = 0;
        for (std::size_t i = 0; i <= r.mask; ++i) {
            r.slots[i].seq.store(0, std::memory_order_relaxed);
        }
    }
    g_enabled.store(on, std::memory_order_release);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void configure(std::size_t capacity) {
    if (enabled()) return;  // honored only while off
    g_capacity = capacity < 64 ? 64 : capacity;
    Ring& r = ring();
    std::size_t cap = 64;
    while (cap < g_capacity) cap <<= 1;
    {
        util::LockGuard lock{r.drain_mu};
        r.slots = std::make_unique<Slot[]>(cap);
        r.mask = cap - 1;
        r.head.store(0, std::memory_order_relaxed);
        r.lost.store(0, std::memory_order_relaxed);
        r.cursor = 0;
    }
}

void set_identity(std::string_view shard) { set_field(g_identity, shard); }

std::string identity() { return g_identity; }

void set_policy(double head_fraction, std::uint64_t slow_us) {
    if (head_fraction < 0.0) head_fraction = 0.0;
    if (head_fraction > 1.0) head_fraction = 1.0;
    g_head_sample_permille.store(static_cast<std::uint64_t>(head_fraction * 1000.0),
                                 std::memory_order_relaxed);
    g_slow_us.store(slow_us, std::memory_order_relaxed);
}

bool should_log(const trace::TraceContext& ctx, bool error,
                std::uint64_t micros, bool retried) {
    // Tail overrides first: anything anomalous is always kept.
    if (error || retried || ctx.forced()) return true;
    const std::uint64_t slow = g_slow_us.load(std::memory_order_relaxed);
    if (slow != 0 && micros > slow) return true;
    // Head decision: the origin's call when a context exists, this
    // process's own fraction otherwise.
    if (ctx.valid()) return ctx.sampled();
    const std::uint64_t permille =
        g_head_sample_permille.load(std::memory_order_relaxed);
    if (permille >= 1000) return true;
    if (permille == 0) return false;
    const std::uint64_t x = util::mix64(
        g_sample_walk.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed));
    return x % 1000 < permille;
}

void record(const Record& r) {
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    Record stamped = r;
    if (stamped.ts_ns == 0) stamped.ts_ns = now_ns();
    if (stamped.shard[0] == '\0') set_field(stamped.shard, g_identity);
    std::uint64_t words[kRecordWords] = {};
    std::memcpy(words, &stamped, sizeof(Record));
    Ring& ring_ref = ring();
    // hsw:hot-path -- lock-free push: ticket, word stores, stamp.
    const std::uint64_t t =
        ring_ref.head.fetch_add(1, std::memory_order_acq_rel);
    Slot& slot = ring_ref.slots[t & ring_ref.mask];
    slot.seq.store(0, std::memory_order_release);
    for (std::size_t w = 0; w < kRecordWords; ++w) {
        slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.seq.store(t + 1, std::memory_order_release);
    // hsw:end-hot-path
}

std::uint64_t recorded() {
    return ring().head.load(std::memory_order_relaxed);
}

std::uint64_t dropped() {
    Ring& r = ring();
    std::uint64_t lost = r.lost.load(std::memory_order_relaxed);
    // Overwritten-but-not-yet-drained records count too; otherwise a
    // process with no Writer reports zero drops forever.
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    {
        util::LockGuard lock{r.drain_mu};
        const std::uint64_t cap = r.mask + 1;
        if (head - r.cursor > cap) lost += head - r.cursor - cap;
    }
    return lost;
}

void drain(std::vector<Record>& out) {
    Ring& r = ring();
    util::LockGuard lock{r.drain_mu};
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t cap = r.mask + 1;
    std::uint64_t cursor = r.cursor;
    if (head - cursor > cap) {
        r.lost.fetch_add(head - cursor - cap, std::memory_order_relaxed);
        cursor = head - cap;
    }
    for (; cursor != head; ++cursor) {
        Record rec;
        if (read_slot(r.slots[cursor & r.mask], cursor, rec)) {
            out.push_back(rec);
        } else {
            r.lost.fetch_add(1, std::memory_order_relaxed);
        }
    }
    r.cursor = head;
}

std::vector<Record> tail(std::size_t max) {
    Ring& r = ring();
    std::vector<Record> out;
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t cap = r.mask + 1;
    std::uint64_t n = head < cap ? head : cap;
    if (n > max) n = max;
    out.reserve(n);
    for (std::uint64_t t = head - n; t != head; ++t) {
        Record rec;
        if (read_slot(r.slots[t & r.mask], t, rec)) out.push_back(rec);
    }
    return out;
}

void publish_overflow_metrics() {
    static Gauge& lost = gauge(
        "obs_accesslog_dropped",
        "access-log records lost to ring overwrite before being drained");
    lost.set(static_cast<std::int64_t>(dropped()));
}

namespace {

void append_field(std::string& out, std::string_view name,
                  std::string_view value, bool quote) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    if (!quote) {
        out += value;
        return;
    }
    out += '"';
    for (const char c : value) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += '"';
}

}  // namespace

std::string format_json(const Record& r) {
    char buf[32];
    std::string out = "{";
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(r.ts_ns));
    append_field(out, "ts_ns", buf, false);
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(r.trace_id));
    append_field(out, "trace_id", buf, true);
    append_field(out, "verb", r.verb, true);
    append_field(out, "spec", r.spec, true);
    append_field(out, "source", r.source, true);
    append_field(out, "shard", r.shard, true);
    if (r.deadline_slack_us == kNoDeadline) {
        append_field(out, "deadline_slack_us", "null", false);
    } else {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(r.deadline_slack_us));
        append_field(out, "deadline_slack_us", buf, false);
    }
    append_field(out, "outcome", r.outcome, true);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(r.micros));
    append_field(out, "us", buf, false);
    std::snprintf(buf, sizeof buf, "%u", r.retries);
    append_field(out, "retries", buf, false);
    out += '}';
    return out;
}

Writer::~Writer() { stop(); }

bool Writer::start(const std::string& path) {
    if (running_) return false;
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) return false;
    file_ = f;
    {
        util::LockGuard lock{mu_};
        stop_requested_ = false;
    }
    thread_ = std::thread{[this] { run(); }};
    running_ = true;
    return true;
}

void Writer::stop() {
    if (!running_) return;
    {
        util::LockGuard lock{mu_};
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    running_ = false;
    std::fclose(static_cast<std::FILE*>(file_));
    file_ = nullptr;
}

void Writer::run() {
    std::FILE* f = static_cast<std::FILE*>(file_);
    std::vector<Record> batch;
    std::string lines;
    bool done = false;
    while (!done) {
        {
            util::LockGuard lock{mu_};
            if (!stop_requested_) {
                cv_.wait_for(lock, std::chrono::milliseconds{100});
            }
            done = stop_requested_;
        }
        batch.clear();
        drain(batch);  // copies only; formatting and I/O happen lock-free
        if (batch.empty()) continue;
        lines.clear();
        for (const Record& rec : batch) {
            lines += format_json(rec);
            lines += '\n';
        }
        std::fwrite(lines.data(), 1, lines.size(), f);
        std::fflush(f);
    }
}

}  // namespace hsw::obs::accesslog
