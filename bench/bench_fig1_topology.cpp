// Reproduces Figure 1: the partitioned ring layouts of the Haswell-EP
// dies. The 12-core die (used for 10/12-core units) pairs an 8-core and a
// 4-core partition; the 18-core die pairs 8 and 10; each partition has an
// IMC with two DDR4 channels, joined by buffered queues.
#include <cstdio>

#include "arch/topology_render.hpp"

int main() {
    for (unsigned cores : {8u, 12u, 18u}) {
        const auto topo = hsw::arch::make_die_topology(cores);
        std::printf("%s\n", hsw::arch::render_die_ascii(topo).c_str());
    }
    std::puts("paper Figure 1: in the default configuration this complexity is\n"
              "not exposed to software; transfers between partitions ride the\n"
              "buffered queues.");
    return 0;
}
