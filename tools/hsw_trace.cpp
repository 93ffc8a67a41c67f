// hsw_trace: distributed trace collector for the survey fleet.
//
//   hsw_trace --from router=127.0.0.1:7700 --from shard0=127.0.0.1:7788
//             --from shard1=127.0.0.1:7789 --out merged.json
//
// pulls each process's span ring over the protocol's `trace_dump`
// verb (or reads a Chrome trace-event file written by --trace / a flight
// dump), merges everything onto one timeline -- one named process track
// per source, spans correlated across processes by the trace_id each of
// them carries -- and writes a single JSON document Perfetto or
// chrome://tracing can open directly. A text critical-path summary of the
// slowest end-to-end traces is printed so the terminal answers "where did
// the time go" without a browser.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace_merge.hpp"
#include "service/server.hpp"
#include "util/parse.hpp"
#include "util/port_file.hpp"

using namespace hsw;

namespace {

int usage(const char* argv0, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s [--from NAME=HOST:PORT ...] [--file NAME=PATH ...] [options]\n"
        "\n"
        "Collects span traces from running daemons (the protocol's\n"
        "`trace_dump` verb) and/or trace files, merges them onto one\n"
        "Perfetto-compatible timeline keyed by trace_id, and prints a\n"
        "critical-path summary of the slowest traces.\n"
        "\n"
        "  --from NAME=HOST:PORT  pull the span ring of a live daemon; NAME\n"
        "                         becomes its process track (repeatable)\n"
        "  --file NAME=PATH       merge an existing Chrome trace-event file\n"
        "                         (hsw_query --trace-out, surveyd --trace,\n"
        "                         or the \"trace\" member of a flight dump)\n"
        "  --out FILE             write the merged timeline to FILE\n"
        "                         (atomic tmp+rename)\n"
        "  --slowest N            summarize the N slowest traces (default: 3)\n"
        "  --no-summary           skip the text summary (merge only)\n",
        argv0);
    return code;
}

// "NAME=REST" -> {name, rest}; nullopt when either half is empty.
std::optional<std::pair<std::string, std::string>> split_named(
    const std::string& spec) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        return std::nullopt;
    }
    return std::make_pair(spec.substr(0, eq), spec.substr(eq + 1));
}

std::optional<std::string> pull_trace_dump(const std::string& host_port,
                                           std::string& error) {
    const auto colon = host_port.rfind(':');
    if (colon == std::string::npos || colon == 0) {
        error = "want HOST:PORT";
        return std::nullopt;
    }
    std::uint64_t port = 0;
    if (!util::parse_u64(std::string_view{host_port}.substr(colon + 1), port) ||
        port == 0 || port > 65535) {
        error = "bad port in '" + host_port + "'";
        return std::nullopt;
    }
    try {
        service::ServiceClient client{host_port.substr(0, colon),
                                      static_cast<std::uint16_t>(port)};
        service::protocol::Request request;
        request.verb = service::protocol::Verb::TraceDump;
        const auto response = client.call(request);
        if (!response.ok()) {
            error = std::string{name(response.code)} + ": " + response.payload;
            return std::nullopt;
        }
        return response.payload;
    } catch (const std::exception& e) {
        error = e.what();
        return std::nullopt;
    }
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string& error) {
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<obs::trace_merge::ProcessTrace> traces;
    std::string out_file;
    std::uint64_t slowest = 3;
    bool summary = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--from") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            const auto named = split_named(v);
            if (!named) {
                std::fprintf(stderr, "%s: bad --from '%s' (want NAME=HOST:PORT)\n",
                             argv[0], v);
                return 2;
            }
            std::string error;
            const auto json = pull_trace_dump(named->second, error);
            if (!json) {
                std::fprintf(stderr, "hsw_trace: %s (%s): %s\n",
                             named->first.c_str(), named->second.c_str(),
                             error.c_str());
                return 1;
            }
            traces.push_back({named->first, *json});
        } else if (arg == "--file") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            const auto named = split_named(v);
            if (!named) {
                std::fprintf(stderr, "%s: bad --file '%s' (want NAME=PATH)\n",
                             argv[0], v);
                return 2;
            }
            std::string error;
            const auto json = read_file(named->second, error);
            if (!json) {
                std::fprintf(stderr, "hsw_trace: %s\n", error.c_str());
                return 1;
            }
            traces.push_back({named->first, *json});
        } else if (arg == "--out") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            out_file = v;
        } else if (arg == "--slowest") {
            const char* v = value();
            if (!v || !util::parse_u64(v, slowest) || slowest == 0) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--no-summary") {
            summary = false;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }
    if (traces.empty()) {
        std::fprintf(stderr, "hsw_trace: at least one --from or --file is required\n");
        return usage(argv[0], 2);
    }

    std::string merged;
    std::string error;
    if (!obs::trace_merge::merge_chrome_traces(traces, merged, &error)) {
        std::fprintf(stderr, "hsw_trace: merge failed: %s\n", error.c_str());
        return 1;
    }

    if (!out_file.empty()) {
        if (!obs::flight::write_text_atomic(out_file, merged)) {
            std::fprintf(stderr, "hsw_trace: cannot write %s\n", out_file.c_str());
            return 1;
        }
        std::fprintf(stderr, "hsw_trace: merged %zu source(s) into %s\n",
                     traces.size(), out_file.c_str());
    }

    if (summary) {
        const std::string text =
            obs::trace_merge::critical_path_summary(merged, slowest);
        if (text.empty()) {
            std::fprintf(stderr,
                         "hsw_trace: no trace-tagged spans in any source "
                         "(was the request traced?)\n");
        } else {
            std::fputs(text.c_str(), stdout);
        }
    }
    return 0;
}
