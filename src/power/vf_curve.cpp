#include "power/vf_curve.hpp"

#include <cmath>

#include "arch/calibration.hpp"

namespace hsw::power {

namespace cal = hsw::arch::cal;

VfCurve::VfCurve(double a, double b, double c, double factor)
    : a_{a}, b_{b}, c_{c}, factor_{factor} {}

VfCurve VfCurve::core_curve(unsigned socket_id, double per_core_factor) {
    const double socket_factor =
        socket_id == 0 ? cal::kSocket0VoltageFactor : cal::kSocket1VoltageFactor;
    return VfCurve{cal::kCoreVfA, cal::kCoreVfB, cal::kCoreVfC,
                   socket_factor * per_core_factor};
}

VfCurve VfCurve::uncore_curve(unsigned socket_id) {
    const double socket_factor =
        socket_id == 0 ? cal::kSocket0VoltageFactor : cal::kSocket1VoltageFactor;
    return VfCurve{cal::kUncoreVfA, cal::kUncoreVfB, 0.0, socket_factor};
}

Frequency VfCurve::frequency_for(Voltage v) const {
    const double target = v.as_volts() / factor_;
    if (c_ == 0.0) {
        if (b_ == 0.0) return Frequency::zero();
        return Frequency::ghz((target - a_) / b_);
    }
    // Positive root of c*f^2 + b*f + (a - target) = 0.
    const double disc = b_ * b_ - 4.0 * c_ * (a_ - target);
    if (disc <= 0.0) return Frequency::zero();
    return Frequency::ghz((-b_ + std::sqrt(disc)) / (2.0 * c_));
}

}  // namespace hsw::power
