#include "workloads/workload.hpp"

namespace hsw::workloads {

const Workload& idle() {
    static constexpr Workload w{.name = "idle"};
    return w;
}

}  // namespace hsw::workloads
