// The full Fig. 2-8 / Table III-V survey expressed as engine Experiments.
//
// Each experiment is decomposed into its independent sweep points (one node
// per job, nothing shared), so the scheduler can fan them across cores:
// Table V contributes 18 single-cell jobs, Figs. 5/6 one job per
// generation, Fig. 7 one per generation; stateful single-node sweeps
// (Fig. 3, Fig. 8, Tables III/IV) stay single jobs. Assembly concatenates
// fragments in point order, so outputs are byte-identical to the serial
// drivers run with the same derived seeds.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/audit_config.hpp"
#include "engine/engine.hpp"
#include "util/units.hpp"

namespace hsw::engine {

/// Everything that parameterizes the survey besides the experiment
/// structure itself. Every field is folded into each job's ExperimentSpec,
/// so changing any value invalidates exactly the affected cache entries.
struct SurveyTuning {
    std::uint64_t seed = 0xC0FFEE;
    analysis::AuditMode audit = analysis::AuditMode::Off;

    util::Time fig2_window = util::Time::sec(4);
    unsigned fig3_samples = 1000;
    unsigned fig56_samples = 40;        // per sweep point
    util::Time table3_dwell = util::Time::sec(1);
    unsigned table4_samples = 50;       // one-second LIKWID samples
    util::Time table5_run_time = util::Time::sec(70);
    util::Time table5_window = util::Time::sec(60);  // the paper's 1-minute window
    util::Time skx_settle = util::Time::ms(50);      // Skylake-SP sweeps: per-point
    util::Time skx_window = util::Time::ms(500);     //   settle / measure window

    /// Heavily reduced sampling for smoke tests and determinism checks --
    /// same structure and job fan-out, a fraction of the wall time.
    [[nodiscard]] static SurveyTuning quick();
};

/// All fifteen survey experiments (fig2a fig2b fig2c fig3 fig4 fig5 fig6
/// fig7 fig8 table3 table4 table5 xgen_c6 skx_hwp skx_avx512): the paper's
/// figures and tables in publication order, then the cross-generation
/// extensions on the Skylake-SP platform backend.
[[nodiscard]] std::vector<Experiment> survey_experiments(const SurveyTuning& tuning = {});

/// nullptr when no experiment has that name.
[[nodiscard]] const Experiment* find_experiment(const std::vector<Experiment>& experiments,
                                                std::string_view name);

}  // namespace hsw::engine
