#include "pcu/avx_license.hpp"

#include "arch/calibration.hpp"

namespace hsw::pcu {

namespace cal = hsw::arch::cal;

void AvxLicense::update(double avx_fraction, Time now) {
    const bool avx_active = avx_fraction >= kLicenseThreshold;
    if (avx_active) {
        last_avx_seen_ = now;
        if (!licensed_) {
            licensed_ = true;
            ramp_end_ = now + kRampDuration;
        }
        return;
    }
    // "The PCU returns to regular (non-AVX) operating mode 1 ms after AVX
    // instructions are completed."
    if (licensed_ && now - last_avx_seen_ >= cal::kAvxRelaxDelay) {
        licensed_ = false;
    }
}

void AvxLicenseLevels::update(double avx_fraction, double avx512_fraction, Time now) {
    unsigned demanded = 0;
    if (avx512_fraction >= kAvx512Threshold) {
        demanded = kMaxLevel;
    } else if (avx_fraction >= AvxLicense::kLicenseThreshold) {
        demanded = 1;
    }
    demand_ = demanded;
    if (demanded >= level_) last_at_or_above_ = now;
    if (demanded > level_) {
        level_ = demanded;
        ramp_end_ = now + AvxLicense::kRampDuration;
        return;
    }
    // Same relax rule as the single license: 1 ms after the demand last
    // covered the held level, drop -- but only one level per expiry.
    if (demanded < level_ && now - last_at_or_above_ >= cal::kAvxRelaxDelay) {
        --level_;
        last_at_or_above_ = now;
    }
}

}  // namespace hsw::pcu
