// Simulated /dev/cpu/*/msr: the only interface through which tool code
// (perfmon, FTaLaT) touches the machine, mirroring how LIKWID and
// friends access real hardware. Devices (PCU, RAPL, counters) register
// read/write handlers per address; package-scoped registers register one
// handler per CPU range so each socket answers for its own cores.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "msr/addresses.hpp"

namespace hsw::msr {

/// Thrown on access to an unimplemented MSR or a write to a read-only one,
/// like the #GP fault a real rdmsr/wrmsr would raise.
class MsrError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One rdmsr/wrmsr as seen by an access observer. `value` is the written
/// value for writes and zero for reads (the observer fires before the read
/// handler runs, mirroring a bus-level probe).
struct MsrAccessEvent {
    enum class Kind { Read, Write };
    Kind kind = Kind::Read;
    unsigned cpu = 0;
    MsrAddress address = 0;
    std::uint64_t value = 0;
};

class MsrFile {
public:
    using ReadFn = std::function<std::uint64_t(unsigned cpu)>;
    using WriteFn = std::function<void(unsigned cpu, std::uint64_t value)>;
    using Observer = std::function<void(const MsrAccessEvent&)>;
    using ObserverId = std::uint64_t;

    /// Register handlers valid for all CPUs. Pass nullptr WriteFn for
    /// read-only registers. Later registrations for an overlapping range
    /// take precedence.
    void register_msr(MsrAddress addr, ReadFn read, WriteFn write = nullptr);

    /// Register handlers for the CPU range [first_cpu, last_cpu] only
    /// (package-scoped registers such as RAPL).
    void register_msr_range(MsrAddress addr, unsigned first_cpu, unsigned last_cpu,
                            ReadFn read, WriteFn write = nullptr);

    /// Register a plain storage MSR (read/write to a per-cpu cell).
    void register_storage(MsrAddress addr, std::uint64_t initial = 0);

    [[nodiscard]] std::uint64_t read(unsigned cpu, MsrAddress addr) const;
    void write(unsigned cpu, MsrAddress addr, std::uint64_t value);

    [[nodiscard]] bool exists(MsrAddress addr) const { return handlers_.contains(addr); }

    /// Install a tap that sees every access before it is dispatched (the
    /// analysis layer's MSR linter). Observers must not access the MsrFile
    /// reentrantly. Multiple observers coexist; registration never
    /// displaces another component's tap. Observer state is per-MsrFile
    /// (per-Node): worker threads each driving their own node never share
    /// any of it.
    ObserverId add_observer(Observer observer) {
        observers_.emplace_back(next_observer_id_, std::move(observer));
        return next_observer_id_++;
    }

    /// Remove one observer by its add_observer id; unknown ids are ignored.
    void remove_observer(ObserverId id) {
        std::erase_if(observers_, [id](const auto& o) { return o.first == id; });
    }

    [[nodiscard]] std::size_t observer_count() const { return observers_.size(); }

private:
    struct RangeHandlers {
        unsigned first;
        unsigned last;
        ReadFn read;
        WriteFn write;
    };
    [[nodiscard]] const RangeHandlers* find(unsigned cpu, MsrAddress addr) const;

    std::unordered_map<MsrAddress, std::vector<RangeHandlers>> handlers_;
    // Backing store for register_storage cells: (addr, cpu) -> value.
    std::unordered_map<std::uint64_t, std::uint64_t> storage_;
    ObserverId next_observer_id_ = 1;
    std::vector<std::pair<ObserverId, Observer>> observers_;
};

/// EPB policy semantics (Section II-C): only 0, 6 and 15 are architecturally
/// defined; measurements show 1-7 map to balanced and 8-14 to energy saving.
enum class EpbPolicy { Performance, Balanced, EnergySaving };

[[nodiscard]] constexpr EpbPolicy decode_epb(std::uint64_t raw) {
    const auto bits = raw & 0xF;
    if (bits == 0) return EpbPolicy::Performance;
    if (bits <= 7) return EpbPolicy::Balanced;
    return EpbPolicy::EnergySaving;
}

[[nodiscard]] constexpr std::uint64_t encode_epb(EpbPolicy p) {
    switch (p) {
        case EpbPolicy::Performance: return 0;
        case EpbPolicy::Balanced: return 6;
        case EpbPolicy::EnergySaving: return 15;
    }
    return 6;
}

[[nodiscard]] constexpr const char* epb_name(EpbPolicy p) {
    switch (p) {
        case EpbPolicy::Performance: return "performance";
        case EpbPolicy::Balanced: return "balanced";
        case EpbPolicy::EnergySaving: return "energy-saving";
    }
    return "?";
}

}  // namespace hsw::msr
