// RAPL counter device (Section IV).
//
// Exposes the MSR-level semantics software actually deals with:
//  - raw 32-bit energy counters that wrap,
//  - a package energy unit advertised in MSR_RAPL_POWER_UNIT (2^-14 J),
//  - a DRAM domain whose *correct* unit (15.3 uJ in mode 1) is NOT the one
//    in MSR_RAPL_POWER_UNIT -- using the generic unit yields "unreasonable
//    high values for DRAM power consumption",
//  - DRAM mode 0 producing unspecified values on Haswell-EP,
//  - no PP0 domain on Haswell-EP,
//  - counters that refresh on a ~1 ms cadence,
//  - MSR_PKG_POWER_LIMIT: a writable power cap handed to the PCU.
#pragma once

#include <cstdint>
#include <optional>

#include "arch/generation.hpp"
#include "msr/msr_file.hpp"
#include "rapl/model.hpp"
#include "util/units.hpp"

namespace hsw::rapl {

using util::Energy;
using util::Power;
using util::Time;

enum class Domain { Package, Pp0, Dram };

enum class DramMode {
    Mode0,  // legacy BIOS option: unspecified behavior on Haswell-EP
    Mode1,  // supported mode; energy unit 15.3 uJ
};

class RaplPackage {
public:
    RaplPackage(arch::Generation generation, unsigned socket_id,
                DramMode dram_mode = DramMode::Mode1,
                std::uint64_t noise_seed = 1);

    /// Accumulate true consumption over an interval; the socket calls this
    /// every time machine state changes or a periodic tick fires.
    void integrate(Power pkg_true, Power dram_true, const ActivityVector& av, Time dt);

    /// Publish the accumulated energy into the raw counters (the ~1 ms MSR
    /// refresh); reads between publishes see the last published value.
    void publish();

    /// Raw 32-bit counter values as read from the MSRs.
    [[nodiscard]] std::uint32_t pkg_energy_raw() const { return pkg_raw_; }
    [[nodiscard]] std::uint32_t dram_energy_raw() const { return dram_raw_; }

    /// MSR_RAPL_POWER_UNIT content (power unit 1/8 W, ESU 2^-14 J, time
    /// unit 976 us -- the Haswell encoding).
    [[nodiscard]] std::uint64_t power_unit_msr() const;

    /// Joules per raw count for a domain under the configured mode; this is
    /// what a *correct* reader must use (Section IV).
    [[nodiscard]] double energy_unit(Domain d) const;

    /// True accumulated energies (ground truth, for validation harnesses).
    [[nodiscard]] Energy true_pkg_energy() const { return true_pkg_; }
    [[nodiscard]] Energy true_dram_energy() const { return true_dram_; }
    /// The estimator's accumulated energies, before counter quantization.
    [[nodiscard]] Energy reported_pkg_energy() const { return reported_pkg_; }
    [[nodiscard]] Energy reported_dram_energy() const { return reported_dram_; }

    [[nodiscard]] bool has_domain(Domain d) const;
    [[nodiscard]] DramMode dram_mode() const { return dram_mode_; }

    /// Package power-limit register (MSR 0x610): the PCU consults this.
    void write_power_limit_msr(std::uint64_t value);
    [[nodiscard]] std::uint64_t power_limit_msr() const { return power_limit_raw_; }
    /// Enabled PL1 limit in watts, if set.
    [[nodiscard]] std::optional<Power> active_power_limit() const;

    /// Hook all RAPL MSRs of this package into an MSR file. `cpu_matches`
    /// decides whether a cpu number belongs to this package.
    void attach(msr::MsrFile& file, unsigned first_cpu, unsigned last_cpu);

private:
    arch::Generation generation_;
    DramMode dram_mode_;
    RaplEstimator estimator_;
    util::Rng mode0_rng_;

    Energy true_pkg_;
    Energy true_dram_;
    Energy reported_pkg_;   // estimator output, pre-quantization
    Energy reported_dram_;
    std::uint32_t pkg_raw_ = 0;
    std::uint32_t dram_raw_ = 0;
    std::uint64_t power_limit_raw_;
    unsigned first_cpu_ = 0;
    unsigned last_cpu_ = 0;
};

}  // namespace hsw::rapl
