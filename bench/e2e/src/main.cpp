// hsw_bench: the repository's end-to-end benchmark.
//
//   hsw_bench --workload {survey-cold|serve-hot|serve-mixed|fleet-routed|all}
//             [--seed S] [--seconds T] [--traced] [--smoke] [--self-test]
//             [--json PATH]
//
// Prints every metric by name with its unit, checks the outputs, and exits
// non-zero on any failed check. `all` runs each workload in its own
// process, so set-up time and peak RSS belong to one workload. --traced
// reruns the load with the benchmark's own spans on, runs the isolation
// passes and prints the ledger, writing the spans as Chrome-trace JSON next
// to the --json result; --self-test corrupts one reference in memory and
// succeeds only if the run then fails its check.
#include <spawn.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "engine/result_cache.hpp"

extern char** environ;

namespace {

using e2e::json_string;
using e2e::Options;
using e2e::Report;

const char* const kWorkloads[] = {"survey-cold", "serve-hot", "serve-mixed", "fleet-routed"};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload {survey-cold|serve-hot|serve-mixed|fleet-routed|all}\n"
                 "          [--seed S] [--seconds T] [--traced] [--smoke] [--self-test]\n"
                 "          [--json PATH]\n",
                 argv0);
    return 2;
}

std::optional<Options> parse(int argc, char** argv) {
    Options o;
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--seconds" && has_value) {
            o.seconds = std::strtod(argv[++i], nullptr);
            seconds_set = true;
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--self-test") {
            o.self_test = true;
        } else if (arg == "--json" && has_value) {
            o.json_path = argv[++i];
        } else {
            return std::nullopt;
        }
    }
    if (o.smoke && !seconds_set) o.seconds = 1.0;
    if (o.workload.empty() || !(o.seconds > 0.0)) return std::nullopt;
    return o;
}

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string trim(std::string s) {
    while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
    return s;
}

/// HEAD of the checkout's git repository, or "unknown" outside one.
std::string git_commit(const std::filesystem::path& root) {
    const auto git = root / ".git";
    const std::string head = trim(slurp(git / "HEAD"));
    if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    const std::string loose = trim(slurp(git / ref));
    if (!loose.empty()) return loose;
    std::istringstream packed{slurp(git / "packed-refs")};
    std::string line;
    while (std::getline(packed, line)) {
        if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
            return line.substr(0, 40);
        }
    }
    return "unknown";
}

std::string cpu_model() {
    std::istringstream info{slurp("/proc/cpuinfo")};
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return trim(line.substr(colon + 2));
        }
    }
    return "unknown";
}

std::string kernel() {
    utsname u{};
    return uname(&u) == 0 ? std::string{u.release} : "unknown";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string json_metrics(const std::vector<e2e::Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& m = metrics[i];
        out += (i ? ",\n    " : "\n    ") + json_string(m.name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "\n  }";
}

struct Host {
    unsigned nproc = std::thread::hardware_concurrency();
    std::string cpu = cpu_model();
    std::string kernel_release = kernel();
    std::string compiler = HSW_E2E_COMPILER;
};

bool write_json(const Options& o, const Report& r, const Host& host, double elapsed_s) {
    std::string out = "{\n  \"schema\": \"hsw_bench/1\",\n";
    out += "  \"workload\": " + json_string(r.workload) + ",\n";
    out += "  \"seed\": " + std::to_string(o.seed) + ",\n";
    out += "  \"traced\": " + std::string{o.traced ? "true" : "false"} + ",\n";
    out += "  \"smoke\": " + std::string{o.smoke ? "true" : "false"} + ",\n";
    out += "  \"correct\": " + std::string{r.correct() ? "true" : "false"} + ",\n";
    out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
    out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
    out += "  \"failures\": [";
    const auto failures = r.failures();
    for (std::size_t i = 0; i < failures.size(); ++i) {
        out += (i ? ", " : "") + json_string(failures[i]);
    }
    out += "],\n  \"host\": {\"nproc\": " + std::to_string(host.nproc) +
           ", \"cpu_model\": " + json_string(host.cpu) +
           ", \"kernel\": " + json_string(host.kernel_release) +
           ", \"compiler\": " + json_string(host.compiler) + "},\n";
    out += "  \"provenance\": {\"build_type\": " + json_string(HSW_E2E_BUILD_TYPE) +
           ", \"code_version\": " + json_string(hsw::engine::kCodeVersion) +
           ", \"git_commit\": " + json_string(git_commit(o.repo_root)) +
           ", \"seconds\": " + json_number(o.seconds) +
           ", \"warmup_s\": " + json_number(o.warmup_s()) +
           ", \"setup_repeats\": " + std::to_string(o.setup_repeats()) +
           ", \"elapsed_s\": " + json_number(elapsed_s);
    for (const auto& [key, value] : r.info) out += ", " + json_string(key) + ": " + json_string(value);
    out += "},\n";
    out += "  \"end_to_end\": " + json_metrics(r.end_to_end) + ",\n";
    out += "  \"layers\": " + json_metrics(r.layers) + ",\n";
    out += "  \"extra\": " + json_metrics(r.extra) + ",\n";
    out += "  \"ledger\": [";
    for (std::size_t i = 0; i < r.ledger.size(); ++i) {
        out += (i ? ",\n    " : "\n    ") + json_string(r.ledger[i]);
    }
    out += "\n  ]\n}\n";
    std::ofstream file{o.json_path, std::ios::binary};
    file << out;
    return static_cast<bool>(file);
}

void print_metrics(const char* title, const std::vector<e2e::Metric>& metrics) {
    if (metrics.empty()) return;
    std::printf("%s:\n", title);
    for (const auto& m : metrics) {
        std::printf("  %-38s %16.6f %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
}

void print_report(const Options& o, const Report& r, const Host& host, double elapsed_s) {
    std::printf("hsw_bench %s seed=%llu seconds=%g traced=%d smoke=%d\n", r.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.traced ? 1 : 0,
                o.smoke ? 1 : 0);
    std::printf("host: nproc=%u cpu=\"%s\" kernel=%s compiler=\"%s\" build=%s code_version=%s "
                "commit=%s\n",
                host.nproc, host.cpu.c_str(), host.kernel_release.c_str(), host.compiler.c_str(),
                HSW_E2E_BUILD_TYPE, std::string{hsw::engine::kCodeVersion}.c_str(),
                git_commit(o.repo_root).c_str());
    std::printf("run:");
    for (const auto& [key, value] : r.info) std::printf(" %s=%s", key.c_str(), value.c_str());
    std::printf(" elapsed_s=%.3f\n", elapsed_s);
    print_metrics("end-to-end (tracing off)", r.end_to_end);
    print_metrics("layers", r.layers);
    print_metrics("workload-specific", r.extra);
    if (!r.ledger.empty()) {
        std::printf("ledger:\n");
        for (const auto& line : r.ledger) std::printf("  %s\n", line.c_str());
    }
    for (const auto& why : r.failures()) std::printf("check failed: %s\n", why.c_str());
    std::printf("check: %s (attempted=%llu failed=%llu)\n", r.correct() ? "correct" : "FAILED",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
}

std::string with_suffix(const std::string& path, const std::string& suffix) {
    if (path.empty()) return path;
    const std::string stem =
        path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0
            ? path.substr(0, path.size() - 5)
            : path;
    return stem + suffix;
}

/// `--workload all`: one child process per workload, run in turn.
int run_all(int argc, char** argv, const Options& o) {
    int worst = 0;
    for (const char* workload : kWorkloads) {
        std::vector<std::string> args{"/proc/self/exe"};
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if ((arg == "--workload" || arg == "--json") && i + 1 < argc) {
                ++i;
                continue;
            }
            args.push_back(arg);
        }
        args.insert(args.end(), {"--workload", workload});
        if (!o.json_path.empty()) {
            args.insert(args.end(),
                        {"--json", with_suffix(o.json_path, std::string{"."} + workload + ".json")});
        }
        std::vector<char*> cargs;
        for (auto& a : args) cargs.push_back(a.data());
        cargs.push_back(nullptr);
        pid_t pid = 0;
        if (posix_spawn(&pid, cargs[0], nullptr, nullptr, cargs.data(), environ) != 0) {
            std::fprintf(stderr, "cannot start the %s run\n", workload);
            return 2;
        }
        int status = 0;
        while (waitpid(pid, &status, 0) < 0) {
        }
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
        worst = std::max(worst, code);
    }
    return worst;
}

Report dispatch(const Options& o) {
    if (o.workload == "survey-cold") return e2e::run_survey_cold(o);
    if (o.workload == "serve-hot") return e2e::run_serve_hot(o);
    if (o.workload == "serve-mixed") return e2e::run_serve_mixed(o);
    return e2e::run_fleet_routed(o);
}

}  // namespace

int main(int argc, char** argv) {
    auto parsed = parse(argc, argv);
    if (!parsed) return usage(argv[0]);
    Options o = *parsed;
    o.repo_root = HSW_E2E_REPO_ROOT;
    if (o.workload == "all") return run_all(argc, argv, o);
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
        std::end(kWorkloads)) {
        return usage(argv[0]);
    }
    const std::filesystem::path base = HSW_E2E_WORK_DIR;
    o.work_dir = base / (o.workload + "-" + std::to_string(::getpid()));
    if (o.traced) {
        o.trace_path = o.json_path.empty()
                           ? (base / (o.workload + "-" + std::to_string(o.seed) + ".trace.json"))
                                 .string()
                           : with_suffix(o.json_path, ".trace.json");
    }
    std::filesystem::create_directories(o.work_dir);

    const auto t0 = e2e::Clock::now();
    Report report;
    int code = 0;
    try {
        report = dispatch(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_bench %s: %s\n", o.workload.c_str(), e.what());
        code = 2;
    }
    std::filesystem::remove_all(o.work_dir);
    if (code != 0) return code;

    const Host host;
    const double elapsed = e2e::seconds_between(t0, e2e::Clock::now());
    print_report(o, report, host, elapsed);
    if (o.traced) std::printf("trace: %s\n", o.trace_path.c_str());
    if (!o.json_path.empty() && !write_json(o, report, host, elapsed)) {
        std::fprintf(stderr, "cannot write %s\n", o.json_path.c_str());
        return 2;
    }
    if (o.self_test) {
        std::printf("self-test: %s\n", report.correct()
                                           ? "FAILED (the corrupted reference went unnoticed)"
                                           : "passed (the corrupted reference was detected)");
        return report.correct() ? 1 : 0;
    }
    return report.correct() ? 0 : 1;
}
