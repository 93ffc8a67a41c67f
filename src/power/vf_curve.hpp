// Voltage/frequency operating curves.
//
// Each voltage domain (a core behind its FIVR, or the uncore) maps a target
// frequency to the minimum stable voltage. Per-socket and per-core factors
// model the silicon variation the paper observes in Section III ("the cores'
// voltages for a given p-state differ on the two processors").
#pragma once

#include "util/units.hpp"

namespace hsw::power {

using util::Frequency;
using util::Voltage;

class VfCurve {
public:
    /// V(f) = (a + b*f_GHz + c*f_GHz^2) * factor.
    VfCurve(double a, double b, double c, double factor = 1.0);

    /// Core-domain curve for a socket (applies the per-socket factor from
    /// the calibration, Section III).
    [[nodiscard]] static VfCurve core_curve(unsigned socket_id, double per_core_factor = 1.0);

    /// Uncore-domain curve for a socket.
    [[nodiscard]] static VfCurve uncore_curve(unsigned socket_id);

    [[nodiscard]] Voltage voltage_for(Frequency f) const {
        const double g = f.as_ghz();
        return Voltage::volts((a_ + b_ * g + c_ * g * g) * factor_);
    }

    /// Highest frequency that fits under the given voltage (inverse map,
    /// used by the PCU when budgeting).
    [[nodiscard]] Frequency frequency_for(Voltage v) const;

    [[nodiscard]] double factor() const { return factor_; }

private:
    double a_;
    double b_;
    double c_;
    double factor_;
};

}  // namespace hsw::power
