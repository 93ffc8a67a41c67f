#include "power/power_model.hpp"

#include "arch/calibration.hpp"

namespace hsw::power {

namespace cal = hsw::arch::cal;

Power uncore_power(double traffic_utilization, Voltage v, Frequency f) {
    if (traffic_utilization < 0.0) traffic_utilization = 0.0;
    if (traffic_utilization > 1.0) traffic_utilization = 1.0;
    const double v2 = v.as_volts() * v.as_volts();
    const double activity =
        cal::kUncoreIdleActivityFloor + (1.0 - cal::kUncoreIdleActivityFloor) * traffic_utilization;
    return Power::watts(cal::kUncoreCdynFullLoad * activity * v2 * f.as_ghz());
}

Power dram_power(util::Bandwidth bw) {
    return cal::kDramBackgroundPerSocket +
           Power::watts(cal::kDramWattsPerGBs * bw.as_gb_per_sec());
}

Power socket_static_power() { return cal::kSocketStaticPower; }

}  // namespace hsw::power
