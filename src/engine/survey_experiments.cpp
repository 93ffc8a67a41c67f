#include "engine/survey_experiments.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/blob.hpp"
#include "survey/fig2_rapl.hpp"
#include "survey/fig3_pstate.hpp"
#include "survey/fig4_opportunity.hpp"
#include "survey/fig56_cstates.hpp"
#include "survey/fig78_bandwidth.hpp"
#include "survey/skx_hwp.hpp"
#include "survey/table3_uncore.hpp"
#include "survey/table4_firestarter.hpp"
#include "survey/table5_maxpower.hpp"
#include "util/table.hpp"
#include "workloads/mixes.hpp"

namespace hsw::engine {

namespace {

using util::Table;

/// Shortest round-trip-exact rendering, for "data" blob sections that get
/// parsed back into doubles at assembly time.
std::string fmt_full(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string csv_row(std::initializer_list<std::string> cells) {
    std::string out;
    for (const auto& cell : cells) {
        if (!out.empty()) out += ',';
        out += cell;  // no cell in the survey needs RFC-4180 escaping
    }
    out += '\n';
    return out;
}

std::string seconds_str(util::Time t) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", t.as_seconds());
    return buf;
}

ExperimentSpec base_spec(const SurveyTuning& t, std::string experiment,
                         std::string point) {
    ExperimentSpec spec;
    spec.experiment = std::move(experiment);
    spec.point = std::move(point);
    spec.base_seed = t.seed;
    spec.audit = t.audit;
    return spec;
}

std::string render_name(const std::string& csv_name) {
    return csv_name.substr(0, csv_name.size() - 4) + ".txt";
}

/// Experiment with exactly one job whose blob carries finished "csv" and
/// "render" sections -- nothing to reconstruct at assembly time. `cost` is
/// the job's scheduling hint (Job::cost).
Experiment single_job(std::string name, std::string description, ExperimentSpec spec,
                      std::function<BlobSections(const ExperimentSpec&)> compute,
                      std::string csv_filename, std::string csv_header, double cost = 0.0) {
    Experiment e;
    e.name = std::move(name);
    e.description = std::move(description);
    Job job;
    job.spec = std::move(spec);
    job.run = [compute = std::move(compute)](const ExperimentSpec& s) {
        return pack_sections(compute(s));
    };
    job.cost = cost;
    e.jobs.push_back(std::move(job));
    e.assemble = [csv_filename = std::move(csv_filename),
                  csv_header = std::move(csv_header)](const std::vector<std::string>& p) {
        std::vector<Artifact> out;
        out.push_back(Artifact{csv_filename, ArtifactKind::Csv,
                               csv_header + '\n' + section(p.at(0), "csv").value_or("")});
        out.push_back(Artifact{render_name(csv_filename), ArtifactKind::Render,
                               section(p.at(0), "render").value_or("")});
        return out;
    };
    return e;
}

// --- Fig. 2 (one experiment per generation, matching the legacy CSVs) ---

Experiment fig2_experiment(const SurveyTuning& t, const char* name,
                           arch::Generation generation, const char* csv_filename) {
    ExperimentSpec spec = base_spec(t, name, "all");
    spec.set_param("generation", std::string{arch::traits(generation).name});
    spec.set_param("window_s", seconds_str(t.fig2_window));
    const util::Time window = t.fig2_window;
    Experiment e = single_job(
        name,
        std::string{"Fig. 2 RAPL vs AC reference power, "} +
            std::string{arch::traits(generation).name},
        std::move(spec),
        [generation, window](const ExperimentSpec& s) {
            const auto r =
                survey::fig2_run(generation, window, s.job_seed(), s.audit_config());
            std::string csv;
            for (const auto& p : r.report.points) {
                csv += csv_row({p.workload, std::to_string(p.active_cores_per_socket),
                                std::to_string(p.threads_per_core),
                                Table::fmt(p.ac_watts, 2), Table::fmt(p.rapl_watts, 2)});
            }
            return BlobSections{{"csv", csv}, {"render", r.render()}};
        },
        csv_filename, "workload,cores_per_socket,threads_per_core,ac_watts,rapl_watts",
        // An idle point, then four concurrency points per workload.
        static_cast<double>(1 + 4 * workloads::rapl_validation_set().size()) *
            window.as_seconds());
    e.generations = {generation};
    return e;
}

// --- Figs. 5/6 (per-generation jobs, result reconstructed for render) ---

std::string fig56_data_section(const std::vector<survey::CstateLatencySeries>& series) {
    std::string out;
    for (const auto& s : series) {
        out += "series " + std::to_string(static_cast<int>(s.generation)) + ' ' +
               std::to_string(static_cast<int>(s.scenario)) + ' ' +
               std::to_string(s.points.size()) + '\n';
        for (const auto& p : s.points) {
            out += fmt_full(p.freq_ghz) + ' ' + fmt_full(p.latency_us) + ' ' +
                   fmt_full(p.stddev_us) + '\n';
        }
    }
    return out;
}

std::vector<survey::CstateLatencySeries> parse_fig56_data(const std::string& data,
                                                          cstates::CState state) {
    std::vector<survey::CstateLatencySeries> out;
    std::istringstream in{data};
    std::string tag;
    while (in >> tag) {
        if (tag != "series") throw std::runtime_error{"fig56 data: bad tag " + tag};
        int generation = 0;
        int scenario = 0;
        std::size_t npoints = 0;
        in >> generation >> scenario >> npoints;
        survey::CstateLatencySeries series;
        series.generation = static_cast<arch::Generation>(generation);
        series.state = state;
        series.scenario = static_cast<cstates::WakeScenario>(scenario);
        for (std::size_t i = 0; i < npoints; ++i) {
            survey::CstateLatencyPoint p;
            in >> p.freq_ghz >> p.latency_us >> p.stddev_us;
            series.points.push_back(p);
        }
        if (!in) throw std::runtime_error{"fig56 data: truncated section"};
        out.push_back(std::move(series));
    }
    return out;
}

Experiment fig56_experiment(const SurveyTuning& t, const char* name,
                            cstates::CState state, const char* csv_filename,
                            std::vector<arch::Generation> gens,
                            std::string description) {
    Experiment e;
    e.name = name;
    e.description = std::move(description);
    // One job per generation, assembled in registration order -- fig56()
    // iterates Haswell-EP first, then the Sandy Bridge-EP comparison
    // series, so fig5/fig6 pass exactly that order for byte-identical
    // assembly; xgen_c6 appends Skylake-SP.
    e.generations = gens;
    const unsigned samples = t.fig56_samples;
    for (arch::Generation g : gens) {
        ExperimentSpec spec = base_spec(
            t, name, "generation=" + std::string{arch::traits(g).name});
        spec.set_param("state", std::string{cstates::name(state)});
        spec.set_param("samples", std::to_string(samples));
        Job job;
        job.spec = std::move(spec);
        job.run = [state, g, samples](const ExperimentSpec& s) {
            survey::CstateSweepConfig cfg;
            cfg.samples_per_point = samples;
            cfg.seed = s.job_seed();
            cfg.audit = s.audit_config();
            const auto series = survey::fig56_generation(state, g, cfg);
            std::string csv;
            for (const auto& ser : series) {
                for (const auto& p : ser.points) {
                    csv += csv_row({std::string{arch::traits(ser.generation).name},
                                    std::string{cstates::name(ser.scenario)},
                                    Table::fmt(p.freq_ghz, 1), Table::fmt(p.latency_us, 3),
                                    Table::fmt(p.stddev_us, 3)});
                }
            }
            return pack_sections(
                BlobSections{{"csv", csv}, {"data", fig56_data_section(series)}});
        };
        e.jobs.push_back(std::move(job));
    }
    e.assemble = [state, csv_filename = std::string{csv_filename}](
                     const std::vector<std::string>& payloads) {
        std::string csv = "generation,scenario,freq_ghz,latency_us,stddev_us\n";
        survey::CstateLatencyResult result;
        result.state = state;
        for (const auto& payload : payloads) {
            csv += section(payload, "csv").value_or("");
            auto series = parse_fig56_data(section(payload, "data").value_or(""), state);
            for (auto& s : series) result.series.push_back(std::move(s));
        }
        return std::vector<Artifact>{
            Artifact{csv_filename, ArtifactKind::Csv, std::move(csv)},
            Artifact{render_name(csv_filename), ArtifactKind::Render, result.render()}};
    };
    return e;
}

// --- Fig. 7 (per-generation jobs) ---

Experiment fig7_experiment(const SurveyTuning& t) {
    Experiment e;
    e.name = "fig7";
    e.description = "Fig. 7 relative L3/DRAM bandwidth vs frequency, three generations";
    const arch::Generation gens[] = {arch::Generation::WestmereEP,
                                     arch::Generation::SandyBridgeEP,
                                     arch::Generation::HaswellEP};
    e.generations.assign(std::begin(gens), std::end(gens));
    for (arch::Generation g : gens) {
        ExperimentSpec spec =
            base_spec(t, "fig7", "generation=" + std::string{arch::traits(g).name});
        Job job;
        job.spec = std::move(spec);
        job.run = [g](const ExperimentSpec& s) {
            const auto series =
                survey::fig7_generation(g, s.job_seed(), s.audit_config());
            std::string csv;
            std::string data = "series " +
                               std::to_string(static_cast<int>(series.generation)) + ' ' +
                               std::to_string(series.points.size()) + '\n';
            for (const auto& p : series.points) {
                csv += csv_row({std::string{arch::traits(series.generation).name},
                                Table::fmt(p.set_ghz, 2), Table::fmt(p.relative_l3, 4),
                                Table::fmt(p.relative_dram, 4)});
                data += fmt_full(p.set_ghz) + ' ' + fmt_full(p.relative_l3) + ' ' +
                        fmt_full(p.relative_dram) + '\n';
            }
            return pack_sections(BlobSections{{"csv", csv}, {"data", data}});
        };
        e.jobs.push_back(std::move(job));
    }
    e.assemble = [](const std::vector<std::string>& payloads) {
        std::string csv = "generation,set_ghz,relative_l3,relative_dram\n";
        survey::Fig7Result result;
        for (const auto& payload : payloads) {
            csv += section(payload, "csv").value_or("");
            std::istringstream in{section(payload, "data").value_or("")};
            std::string tag;
            int generation = 0;
            std::size_t npoints = 0;
            in >> tag >> generation >> npoints;
            if (tag != "series") throw std::runtime_error{"fig7 data: bad tag"};
            survey::RelativeBandwidthSeries series;
            series.generation = static_cast<arch::Generation>(generation);
            for (std::size_t i = 0; i < npoints; ++i) {
                survey::RelativeBandwidthPoint p;
                in >> p.set_ghz >> p.relative_l3 >> p.relative_dram;
                series.points.push_back(p);
            }
            if (!in) throw std::runtime_error{"fig7 data: truncated section"};
            result.series.push_back(std::move(series));
        }
        return std::vector<Artifact>{
            Artifact{"fig7_relative_bandwidth.csv", ArtifactKind::Csv, std::move(csv)},
            Artifact{"fig7_relative_bandwidth.txt", ArtifactKind::Render,
                     result.render()}};
    };
    return e;
}

// --- Table V (18 single-cell jobs) ---

const workloads::Workload& table5_workload(const std::string& name) {
    if (name == "FIRESTARTER") return workloads::firestarter();
    if (name == "LINPACK") return workloads::linpack();
    if (name == "mprime") return workloads::mprime();
    throw std::invalid_argument{"unknown Table V workload: " + name};
}

Experiment table5_experiment(const SurveyTuning& t) {
    Experiment e;
    e.name = "table5";
    e.description = "Table V node power maximization, 18 cells on own nodes";
    const char* workload_names[] = {"FIRESTARTER", "LINPACK", "mprime"};
    const std::pair<msr::EpbPolicy, const char*> epbs[] = {
        {msr::EpbPolicy::EnergySaving, "power"},
        {msr::EpbPolicy::Balanced, "bal"},
        {msr::EpbPolicy::Performance, "perf"}};
    const util::Time run_time = t.table5_run_time;
    const util::Time window = t.table5_window;
    for (const char* wl : workload_names) {
        for (bool turbo : {false, true}) {
            for (const auto& [epb, epb_name] : epbs) {
                ExperimentSpec spec =
                    base_spec(t, "table5",
                              std::string{wl} + '.' + (turbo ? "turbo" : "fixed") + '.' +
                                  epb_name);
                spec.set_param("workload", wl);
                spec.set_param("turbo", turbo ? "1" : "0");
                spec.set_param("epb", epb_name);
                spec.set_param("run_s", seconds_str(run_time));
                spec.set_param("window_s", seconds_str(window));
                Job job;
                job.spec = std::move(spec);
                job.cost = run_time.as_seconds();
                job.run = [wl = std::string{wl}, turbo, epb, run_time,
                           window](const ExperimentSpec& s) {
                    survey::MaxPowerConfig cfg;
                    cfg.run_time = run_time;
                    cfg.window = window;
                    cfg.seed = s.job_seed();
                    const auto cell =
                        survey::table5_cell(table5_workload(wl), turbo, epb, cfg);
                    const std::string csv = csv_row(
                        {cell.workload, cell.turbo_setting ? "turbo" : "2.5", cell.epb,
                         Table::fmt(cell.ac_watts, 1), Table::fmt(cell.core_ghz, 2)});
                    const std::string data = "cell " + cell.workload + ' ' +
                                             (cell.turbo_setting ? "1" : "0") + ' ' +
                                             cell.epb + ' ' + fmt_full(cell.ac_watts) +
                                             ' ' + fmt_full(cell.core_ghz) + '\n';
                    return pack_sections(BlobSections{{"csv", csv}, {"data", data}});
                };
                e.jobs.push_back(std::move(job));
            }
        }
    }
    e.assemble = [](const std::vector<std::string>& payloads) {
        std::string csv = "workload,setting,epb,ac_watts,core_ghz\n";
        survey::MaxPowerResult result;
        for (const auto& payload : payloads) {
            csv += section(payload, "csv").value_or("");
            std::istringstream in{section(payload, "data").value_or("")};
            std::string tag;
            int turbo = 0;
            survey::MaxPowerCell cell;
            in >> tag >> cell.workload >> turbo >> cell.epb >> cell.ac_watts >>
                cell.core_ghz;
            if (!in || tag != "cell") throw std::runtime_error{"table5 data: bad cell"};
            cell.turbo_setting = turbo != 0;
            result.cells.push_back(std::move(cell));
        }
        return std::vector<Artifact>{
            Artifact{"table5_maxpower.csv", ArtifactKind::Csv, std::move(csv)},
            Artifact{"table5_maxpower.txt", ArtifactKind::Render, result.render()}};
    };
    return e;
}

}  // namespace

SurveyTuning SurveyTuning::quick() {
    SurveyTuning t;
    t.fig2_window = util::Time::sec(1);
    t.fig3_samples = 60;
    t.fig56_samples = 4;
    t.table3_dwell = util::Time::ms(200);
    t.table4_samples = 3;
    t.table5_run_time = util::Time::sec(2);
    t.table5_window = util::Time::sec(1);
    t.skx_settle = util::Time::ms(10);
    t.skx_window = util::Time::ms(50);
    return t;
}

std::vector<Experiment> survey_experiments(const SurveyTuning& t) {
    std::vector<Experiment> out;

    out.push_back(fig2_experiment(t, "fig2a", arch::Generation::SandyBridgeEP,
                                  "fig2a_sandy_bridge.csv"));
    out.push_back(
        fig2_experiment(t, "fig2b", arch::Generation::HaswellEP, "fig2b_haswell.csv"));
    out.push_back(fig2_experiment(t, "fig2c", arch::Generation::SkylakeSP,
                                  "fig2c_skylake_sp.csv"));

    {
        ExperimentSpec spec = base_spec(t, "fig3", "all");
        spec.set_param("samples", std::to_string(t.fig3_samples));
        const unsigned samples = t.fig3_samples;
        out.push_back(single_job(
            "fig3", "Fig. 3 p-state transition latency histograms", std::move(spec),
            [samples](const ExperimentSpec& s) {
                survey::PstateLatencyConfig cfg;
                cfg.samples = samples;
                cfg.seed = s.job_seed();
                cfg.audit = s.audit_config();
                const auto r = survey::fig3(cfg);
                std::string csv;
                for (const auto& ser : r.series) {
                    for (double v : ser.result.latencies_us) {
                        csv += csv_row({ser.label, Table::fmt(v, 2)});
                    }
                }
                return BlobSections{{"csv", csv}, {"render", r.render()}};
            },
            "fig3_pstate_latencies.csv", "series,latency_us"));
    }

    out.push_back(single_job(
        "fig4", "Fig. 4 p-state opportunity grid timeline", base_spec(t, "fig4", "all"),
        [](const ExperimentSpec& s) {
            const auto r = survey::fig4(s.job_seed(), s.audit_config());
            std::string csv;
            csv += csv_row({"same_socket_delta_us", Table::fmt(r.same_socket_delta_us, 3)});
            csv += csv_row({"cross_socket_delta_us",
                            Table::fmt(r.cross_socket_delta_us, 3)});
            csv += csv_row({"observed_period_us", Table::fmt(r.observed_period_us, 3)});
            return BlobSections{{"csv", csv}, {"render", r.render()}};
        },
        "fig4_opportunity.csv", "metric,value"));

    out.push_back(fig56_experiment(
        t, "fig5", cstates::CState::C3, "fig5_c3_latencies.csv",
        {arch::Generation::HaswellEP, arch::Generation::SandyBridgeEP},
        "Fig. 5 C3 wake-up latencies vs core frequency"));
    out.push_back(fig56_experiment(
        t, "fig6", cstates::CState::C6, "fig6_c6_latencies.csv",
        {arch::Generation::HaswellEP, arch::Generation::SandyBridgeEP},
        "Fig. 6 C6 wake-up latencies vs core frequency"));
    out.push_back(fig7_experiment(t));

    out.push_back(single_job(
        "fig8", "Fig. 8 bandwidth over the concurrency x frequency grid",
        base_spec(t, "fig8", "all"),
        [](const ExperimentSpec& s) {
            const auto r = survey::fig8(s.job_seed(), s.audit_config());
            std::string csv;
            for (std::size_t ti = 0; ti < r.threads.size(); ++ti) {
                for (std::size_t fi = 0; fi < r.set_ghz.size(); ++fi) {
                    csv += csv_row({std::to_string(r.threads[ti]),
                                    Table::fmt(r.set_ghz[fi], 1),
                                    Table::fmt(r.l3_gbs[ti][fi], 2),
                                    Table::fmt(r.dram_gbs[ti][fi], 2)});
                }
            }
            return BlobSections{{"csv", csv}, {"render", r.render()}};
        },
        "fig8_bandwidth_grid.csv", "threads,set_ghz,l3_gbs,dram_gbs"));

    {
        ExperimentSpec spec = base_spec(t, "table3", "all");
        spec.set_param("dwell_s", seconds_str(t.table3_dwell));
        const util::Time dwell = t.table3_dwell;
        out.push_back(single_job(
            "table3", "Table III uncore frequencies, active vs passive processor",
            std::move(spec),
            [dwell](const ExperimentSpec& s) {
                const auto r = survey::table3(dwell, s.job_seed());
                std::string csv;
                for (const auto& row : r.rows) {
                    csv += csv_row({row.turbo ? "turbo" : Table::fmt(row.set_ghz, 1),
                                    Table::fmt(row.active_uncore_ghz, 3),
                                    Table::fmt(row.passive_uncore_ghz, 3),
                                    Table::fmt(row.active_uncore_perf_epb_ghz, 3)});
                }
                return BlobSections{{"csv", csv}, {"render", r.render()}};
            },
            "table3_uncore.csv",
            "setting,active_uncore_ghz,passive_uncore_ghz,active_uncore_perf_epb_ghz",
            30.0 * dwell.as_seconds()));  // 15 settings, two dwells each
    }

    {
        ExperimentSpec spec = base_spec(t, "table4", "all");
        spec.set_param("samples", std::to_string(t.table4_samples));
        const unsigned samples = t.table4_samples;
        out.push_back(single_job(
            "table4", "Table IV FIRESTARTER frequency-setting sweep", std::move(spec),
            [samples](const ExperimentSpec& s) {
                survey::FirestarterSweepConfig cfg;
                cfg.samples = samples;
                cfg.seed = s.job_seed();
                const auto r = survey::table4(cfg);
                std::string csv;
                for (const auto& row : r.rows) {
                    csv += csv_row({row.turbo ? "turbo" : Table::fmt(row.set_ghz, 1),
                                    Table::fmt(row.core_ghz[0], 3),
                                    Table::fmt(row.core_ghz[1], 3),
                                    Table::fmt(row.uncore_ghz[0], 3),
                                    Table::fmt(row.uncore_ghz[1], 3),
                                    Table::fmt(row.gips[0], 3),
                                    Table::fmt(row.gips[1], 3),
                                    Table::fmt(row.rapl_pkg_watts[0], 3),
                                    Table::fmt(row.rapl_pkg_watts[1], 3)});
                }
                return BlobSections{{"csv", csv}, {"render", r.render()}};
            },
            "table4_firestarter.csv",
            "setting,core_ghz_p0,core_ghz_p1,uncore_ghz_p0,uncore_ghz_p1,"
            "gips_p0,gips_p1,rapl_pkg_w_p0,rapl_pkg_w_p1",
            6.0 * samples));  // six settings of `samples` one-second samples
    }

    out.push_back(table5_experiment(t));

    // --- cross-generation extensions (Skylake-SP platform backend) ---

    out.push_back(fig56_experiment(
        t, "xgen_c6", cstates::CState::C6, "xgen_c6_latencies.csv",
        {arch::Generation::HaswellEP, arch::Generation::SandyBridgeEP,
         arch::Generation::SkylakeSP},
        "Cross-generation C6 wake-up latencies (Haswell-EP, Sandy Bridge-EP, "
        "Skylake-SP)"));

    {
        ExperimentSpec spec = base_spec(t, "skx_hwp", "all");
        spec.set_param("generation",
                       std::string{arch::traits(arch::Generation::SkylakeSP).name});
        spec.set_param("settle_s", seconds_str(t.skx_settle));
        spec.set_param("window_s", seconds_str(t.skx_window));
        const util::Time settle = t.skx_settle;
        const util::Time window = t.skx_window;
        Experiment e = single_job(
            "skx_hwp", "Skylake-SP HWP/EPP ladder under FIRESTARTER", std::move(spec),
            [settle, window](const ExperimentSpec& s) {
                survey::SkxSweepConfig cfg;
                cfg.settle = settle;
                cfg.window = window;
                cfg.seed = s.job_seed();
                cfg.audit = s.audit_config();
                const auto r = survey::skx_hwp_epp(cfg);
                std::string csv;
                for (const auto& p : r.points) {
                    csv += csv_row({std::to_string(p.epp), Table::fmt(p.core_ghz, 3),
                                    Table::fmt(p.uncore_ghz, 3),
                                    Table::fmt(p.rapl_pkg_watts, 2)});
                }
                return BlobSections{{"csv", csv}, {"render", r.render()}};
            },
            "skx_hwp_epp.csv", "epp,core_ghz,uncore_ghz,rapl_pkg_watts",
            9.0 * (settle + window).as_seconds());  // nine EPP values
        e.generations = {arch::Generation::SkylakeSP};
        out.push_back(std::move(e));
    }

    {
        ExperimentSpec spec = base_spec(t, "skx_avx512", "all");
        spec.set_param("generation",
                       std::string{arch::traits(arch::Generation::SkylakeSP).name});
        spec.set_param("settle_s", seconds_str(t.skx_settle));
        spec.set_param("window_s", seconds_str(t.skx_window));
        const util::Time settle = t.skx_settle;
        const util::Time window = t.skx_window;
        Experiment e = single_job(
            "skx_avx512", "Skylake-SP AVX-512 license levels vs 512-bit density",
            std::move(spec),
            [settle, window](const ExperimentSpec& s) {
                survey::SkxSweepConfig cfg;
                cfg.settle = settle;
                cfg.window = window;
                cfg.seed = s.job_seed();
                cfg.audit = s.audit_config();
                const auto r = survey::skx_avx512_license(cfg);
                std::string csv;
                for (const auto& p : r.points) {
                    csv += csv_row({Table::fmt(p.avx512_fraction, 2),
                                    std::to_string(p.license_level),
                                    Table::fmt(p.core_ghz, 3),
                                    Table::fmt(p.rapl_pkg_watts, 2)});
                }
                return BlobSections{{"csv", csv}, {"render", r.render()}};
            },
            "skx_avx512_license.csv",
            "avx512_fraction,license_level,core_ghz,rapl_pkg_watts",
            5.0 * (settle + window).as_seconds());  // five 512-bit densities
        e.generations = {arch::Generation::SkylakeSP};
        out.push_back(std::move(e));
    }

    return out;
}

const Experiment* find_experiment(const std::vector<Experiment>& experiments,
                                  std::string_view name) {
    for (const auto& e : experiments) {
        if (e.name == name) return &e;
    }
    return nullptr;
}

JobIndex::JobIndex(const std::vector<Experiment>& experiments) {
    for (const auto& e : experiments) {
        for (const auto& job : e.jobs) by_hash_.emplace(job.spec.hash_hex(), &job);
    }
}

const Job* JobIndex::find(std::string_view hash_hex) const {
    const auto it = by_hash_.find(std::string{hash_hex});
    return it == by_hash_.end() ? nullptr : it->second;
}

const Job* JobIndex::find(const ExperimentSpec& spec) const {
    return find(spec.hash_hex());
}

}  // namespace hsw::engine
