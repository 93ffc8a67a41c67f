#include "hsw_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace hsw::lint {

namespace {

// Marker and suppression needles are assembled from adjacent pieces so the
// linter's own source never contains the literal text it searches raw
// lines for (the tree scan includes tools/hsw_lint itself).
const std::string kHotBegin = std::string{"hsw:"} + "hot-path";
const std::string kHotEnd = std::string{"hsw:"} + "end-hot-path";
const std::string kReactorBegin = std::string{"hsw:"} + "reactor-thread";
const std::string kReactorEnd = std::string{"hsw:"} + "end-reactor-thread";
const std::string kAllow = std::string{"hsw-"} + "lint: allow(";
// The access log's JSON field emitter: its name argument must be a string
// literal so no request can ever pay for (or corrupt) field-name
// formatting.
const std::string kAppendField = std::string{"append_"} + "field";

// --- rule tables -------------------------------------------------------------

const std::unordered_set<std::string_view> kWallClockTokens = {
    "system_clock", "gettimeofday", "localtime", "localtime_r",
    "gmtime",       "gmtime_r",     "ftime",     "timespec_get",
};

const std::unordered_set<std::string_view> kRawRngTokens = {
    "rand",    "srand",   "rand_r",        "drand48",
    "lrand48", "mrand48", "random_device", "random_shuffle",
};

const std::unordered_set<std::string_view> kHotAllocTokens = {
    "new",          "malloc", "calloc",  "realloc",     "free",
    "make_shared",  "make_unique",       "push_back",   "emplace_back",
    "emplace",      "resize", "reserve", "make_pair",
};

const std::unordered_set<std::string_view> kHotBlockingTokens = {
    "sleep_for", "sleep_until", "usleep", "nanosleep", "fopen",
    "ifstream",  "ofstream",    "fstream", "mmap",     "ioctl",
};

// Calls that park the calling thread on a socket (or outright sleep).
// Nonblocking recv/sendmsg on O_NONBLOCK fds are the reactor's bread and
// butter and are deliberately absent; what must never appear on a reactor
// thread is a call that waits for the *peer*: the blocking frame helpers
// (read_frame/write_frame and FrameReader::next_frame loop until a whole
// frame moved; round_trip and the send_batch/receive_batch halves of a
// pipelined call wrap them), accept/connect, the legacy readiness muxes,
// and sleeps.
const std::unordered_set<std::string_view> kReactorBlockingTokens = {
    "read_frame",  "write_frame",   "next_frame", "round_trip",
    "send_batch",  "receive_batch", "accept",     "connect",
    "poll",        "select",        "sleep_for",  "sleep_until",
    "usleep",      "nanosleep",     "getline",
};

// Deliberately excludes ::shutdown(2): it never blocks, and stop() paths
// legitimately shut sockets down under the registry lock.
const std::unordered_set<std::string_view> kLockIoTokens = {
    "fopen",      "fwrite",     "fread",       "fclose",        "ifstream",
    "ofstream",   "fstream",    "read_frame",  "write_frame",   "next_frame",
    "round_trip", "send_batch", "receive_batch", "accept",      "connect",
    "send",       "recv",       "sendto",      "recvfrom",      "printf",
    "fprintf",    "puts",       "cout",        "cerr",          "system",
    "popen",      "getline",
};

// Tokens that start (or re-enter) a lock-held region.
const std::unordered_set<std::string_view> kGuardTokens = {
    "LockGuard",     "lock_guard",        "unique_lock",
    "scoped_lock",   "SharedLockGuard",   "ExclusiveLockGuard",
};

const std::array<std::string_view, 9> kStdSyncTypes = {
    "std::mutex",          "std::timed_mutex",
    "std::recursive_mutex", "std::shared_mutex",
    "std::lock_guard",     "std::unique_lock",
    "std::scoped_lock",    "std::condition_variable",
    "std::condition_variable_any",
};

// --- lexing helpers ----------------------------------------------------------

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blanks comments and string/char literal *contents* with spaces,
/// preserving column positions. `in_block` carries /* */ state across
/// lines. Raw strings are treated as plain strings -- good enough for this
/// tree, which has none.
std::string strip_line(const std::string& raw, bool& in_block) {
    std::string out(raw.size(), ' ');
    bool in_string = false, in_char = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        if (in_block) {
            if (c == '*' && i + 1 < raw.size() && raw[i + 1] == '/') {
                in_block = false;
                ++i;
            }
            continue;
        }
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
                out[i] = '"';
            }
            continue;
        }
        if (in_char) {
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                in_char = false;
                out[i] = '\'';
            }
            continue;
        }
        if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') break;
        if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
            in_block = true;
            ++i;
            continue;
        }
        if (c == '"') {
            in_string = true;
            out[i] = '"';
            continue;
        }
        if (c == '\'') {
            in_char = true;
            out[i] = '\'';
            continue;
        }
        out[i] = c;
    }
    return out;
}

struct Token {
    std::string_view text;
    std::size_t pos = 0;
};

std::vector<Token> tokens_of(const std::string& stripped) {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < stripped.size()) {
        if (ident_char(stripped[i]) &&
            std::isdigit(static_cast<unsigned char>(stripped[i])) == 0) {
            const std::size_t start = i;
            while (i < stripped.size() && ident_char(stripped[i])) ++i;
            out.push_back(Token{
                std::string_view{stripped}.substr(start, i - start), start});
        } else {
            ++i;
        }
    }
    return out;
}

/// The module a path belongs to: the component after the last "src/"
/// (so fixture trees under tests/lint_fixtures/src/... classify exactly
/// like the real tree). Top-level tools/, bench/, tests/ files have no
/// module; only path-agnostic rules apply to them.
std::string module_of(const std::string& path) {
    const auto pos = path.rfind("src/");
    if (pos == std::string::npos) return {};
    if (pos != 0 && path[pos - 1] != '/') return {};
    const std::size_t start = pos + 4;
    const auto slash = path.find('/', start);
    if (slash == std::string::npos) return {};
    return path.substr(start, slash - start);
}

bool is_catalog_path(const std::string& path) {
    const std::string suffix = "msr/addresses.hpp";
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Rule IDs named in `allow(...)` on this raw line; "all" suppresses
/// every rule.
std::vector<std::string> allowed_rules(const std::string& raw) {
    std::vector<std::string> out;
    const auto at = raw.find(kAllow);
    if (at == std::string::npos) return out;
    const std::size_t open = at + kAllow.size();
    const auto close = raw.find(')', open);
    if (close == std::string::npos) return out;
    std::string inside = raw.substr(open, close - open);
    std::stringstream ss{inside};
    std::string rule;
    while (std::getline(ss, rule, ',')) {
        const auto begin = rule.find_first_not_of(" \t");
        const auto end = rule.find_last_not_of(" \t");
        if (begin != std::string::npos) {
            out.push_back(rule.substr(begin, end - begin + 1));
        }
    }
    return out;
}

// --- include layering --------------------------------------------------------

/// Returns empty when `from_module` may include `header`, else the reason.
std::string layering_violation(const std::string& from_module,
                               const std::string& header) {
    const auto slash = header.find('/');
    if (slash == std::string::npos) return {};  // same-directory include
    const std::string target = header.substr(0, slash);

    if (from_module == "util" && target != "util") {
        return "util is the bottom layer and must not include \"" + header + "\"";
    }
    if (from_module == "msr" && target != "msr" && target != "util") {
        return "msr may only include msr/ and util/, not \"" + header + "\"";
    }
    if (from_module == "obs" && target != "obs" && target != "util") {
        return "obs may only include obs/ and util/, not \"" + header + "\"";
    }
    if (from_module == "sim") {
        if (target == "obs") {
            // The simulator may emit telemetry through the two public obs
            // facades, but never reach into obs internals.
            if (header != "obs/metrics.hpp" && header != "obs/trace.hpp") {
                return "sim may only use the obs facades metrics.hpp/trace.hpp, "
                       "not \"" + header + "\"";
            }
        } else if (target != "sim" && target != "util" && target != "msr") {
            return "sim must stay below the engine/service layers and cannot "
                   "include \"" + header + "\"";
        }
    }
    if (from_module == "platform" && target != "platform" && target != "arch" &&
        target != "msr" && target != "pcu" && target != "cstates" &&
        target != "rapl" && target != "power" && target != "util") {
        return "platform backends compose the device models and may only "
               "include arch/, msr/, pcu/, cstates/, rapl/, power/ and util/, "
               "not \"" + header + "\"";
    }
    if (target == "platform" && from_module != "platform" && from_module != "core" &&
        from_module != "os" && from_module != "survey" && from_module != "engine" &&
        !from_module.empty()) {
        return "only core/, os/, survey/ and engine/ may select platform "
               "backends; " + from_module + " must stay generation-agnostic "
               "through the pcu::PcuPolicy hook";
    }
    if (from_module == "router" && target != "router" && target != "service" &&
        target != "obs" && target != "util") {
        return "router sits atop service and may only include router/, "
               "service/, obs/ and util/, not \"" + header + "\"";
    }
    if (target == "service" && from_module != "service" &&
        from_module != "router" && !from_module.empty()) {
        return "only service/ and router/ may include service internals, not " +
               from_module;
    }
    if (target == "engine" && from_module != "engine" && from_module != "service" &&
        !from_module.empty()) {
        return "only engine/ and service/ may include engine internals, not " +
               from_module;
    }
    if (target == "router" && from_module != "router" && !from_module.empty()) {
        return "router is the top of the service stack; " + from_module +
               " must not include \"" + header + "\"";
    }
    return {};
}

// --- per-file scan -----------------------------------------------------------

struct GuardScope {
    int depth = 0;     // brace depth the guard was declared at
    bool active = true;  // false between .unlock() and .lock()
};

struct FileScanner {
    const std::string& path;
    const Catalog& catalog;
    std::string module;
    std::vector<Finding> findings;

    bool in_block_comment = false;
    bool in_hot_region = false;
    int hot_region_line = 0;
    bool in_reactor_region = false;
    int reactor_region_line = 0;
    int depth = 0;
    std::vector<GuardScope> guards;
    std::vector<std::string> prev_allows;

    FileScanner(const std::string& p, const Catalog& c)
        : path{p}, catalog{c}, module{module_of(p)} {}

    void report(int line, const std::vector<std::string>& allows,
                std::string rule, std::string message) {
        for (const auto& a : allows) {
            if (a == rule || a == "all") return;
        }
        findings.push_back(Finding{path, line, std::move(rule), std::move(message)});
    }

    void scan_line(int lineno, const std::string& raw) {
        const std::vector<std::string> here = allowed_rules(raw);
        std::vector<std::string> allows = here;
        allows.insert(allows.end(), prev_allows.begin(), prev_allows.end());

        // Region markers live in comments, so they are matched on the raw
        // line before stripping.
        if (raw.find(kHotBegin) != std::string::npos &&
            raw.find(kHotEnd) == std::string::npos) {
            in_hot_region = true;
            hot_region_line = lineno;
        } else if (raw.find(kHotEnd) != std::string::npos) {
            in_hot_region = false;
        }
        if (raw.find(kReactorBegin) != std::string::npos &&
            raw.find(kReactorEnd) == std::string::npos) {
            in_reactor_region = true;
            reactor_region_line = lineno;
        } else if (raw.find(kReactorEnd) != std::string::npos) {
            in_reactor_region = false;
        }

        // #include lines are parsed from the raw text (the quoted path is
        // exactly what strip_line blanks out).
        if (!in_block_comment) {
            const auto hash = raw.find_first_not_of(" \t");
            if (hash != std::string::npos && raw[hash] == '#' &&
                raw.find("include", hash) != std::string::npos) {
                const auto q1 = raw.find('"');
                const auto q2 = q1 == std::string::npos ? q1 : raw.find('"', q1 + 1);
                if (q2 != std::string::npos) {
                    const std::string header = raw.substr(q1 + 1, q2 - q1 - 1);
                    if (!module.empty()) {
                        const std::string why = layering_violation(module, header);
                        if (!why.empty()) {
                            report(lineno, allows, "include-layering", why);
                        }
                    }
                }
            }
        }

        const std::string stripped = strip_line(raw, in_block_comment);
        scan_tokens(lineno, allows, stripped);
        scan_hex(lineno, allows, stripped);
        update_regions(stripped);

        prev_allows = here;
    }

    void scan_tokens(int lineno, const std::vector<std::string>& allows,
                     const std::string& stripped) {
        const bool det_module = module == "sim" || module == "engine";
        const bool wrapper_module = module == "engine" || module == "service" ||
                                    module == "obs" || module == "router";

        if (wrapper_module) {
            for (const auto type : kStdSyncTypes) {
                if (stripped.find(type) != std::string::npos) {
                    report(lineno, allows, "concurrency-wrappers",
                           std::string{type} +
                               " is banned here; use the annotated util::Mutex / "
                               "util::LockGuard / util::CondVar wrappers");
                }
            }
        }

        const auto toks = tokens_of(stripped);
        const bool line_has_derive =
            stripped.find("derive") != std::string::npos ||
            stripped.find("split") != std::string::npos;

        for (std::size_t t = 0; t < toks.size(); ++t) {
            const Token& tok = toks[t];
            if (det_module) {
                if (kWallClockTokens.count(tok.text) != 0) {
                    report(lineno, allows, "determinism-wallclock",
                           "wall-clock source '" + std::string{tok.text} +
                               "' in deterministic module " + module +
                               "; use sim time or steady_clock");
                }
                if (kRawRngTokens.count(tok.text) != 0) {
                    report(lineno, allows, "determinism-rng",
                           "unseeded/global RNG '" + std::string{tok.text} +
                               "' in deterministic module " + module +
                               "; use util::Rng");
                }
            }
            if (module == "engine" && tok.text == "Rng" && !line_has_derive) {
                // Direct construction (`Rng{...}` / `Rng r{seed}` /
                // `Rng r(seed)`) smuggles an unmanaged seed into the
                // engine; type mentions (Rng&, Rng>, Rng::) are fine.
                std::size_t after = tok.pos + tok.text.size();
                while (after < stripped.size() && stripped[after] == ' ') ++after;
                bool construction = false;
                if (after < stripped.size()) {
                    const char c = stripped[after];
                    if (c == '{' || c == '(') construction = true;
                    if (ident_char(c) && t + 1 < toks.size()) {
                        // `Rng name ...`: a declaration; its initializer
                        // must route through derive()/split().
                        construction = true;
                    }
                }
                if (construction) {
                    report(lineno, allows, "engine-rng-derive",
                           "engine code must obtain Rng via util::Rng::derive() "
                           "or .split(), never from a raw seed");
                }
            }
            // Built with append: GCC 12 misreports `"'" + std::string{...}
            // + ...` chains under -Wrestrict.
            auto token_message = [&tok](std::string_view what) {
                std::string m{"'"};
                m.append(tok.text).append("' ").append(what);
                return m;
            };
            if (in_hot_region) {
                if (kHotAllocTokens.count(tok.text) != 0) {
                    report(lineno, allows, "hot-path-alloc",
                           token_message("allocates inside the hot-path region opened at line ")
                               .append(std::to_string(hot_region_line)));
                }
                if (kHotBlockingTokens.count(tok.text) != 0) {
                    report(lineno, allows, "hot-path-alloc",
                           token_message("may block inside the hot-path region opened at line ")
                               .append(std::to_string(hot_region_line)));
                }
            }
            if (in_reactor_region && kReactorBlockingTokens.count(tok.text) != 0) {
                report(lineno, allows, "reactor-blocking",
                       token_message("can block the event loop inside the reactor-thread "
                                     "region opened at line ")
                           .append(std::to_string(reactor_region_line))
                           .append("; reactor fds are nonblocking, park on epoll instead"));
            }
            if (kLockIoTokens.count(tok.text) != 0 && holding_lock()) {
                report(lineno, allows, "lock-across-io",
                       "I/O call '" + std::string{tok.text} +
                           "' while a lock guard is held; copy under the lock, "
                           "do I/O outside it");
            }
            if (tok.text == kAppendField) check_append_field(lineno, allows, stripped, tok);
        }
    }

    /// `append_field(out, NAME, ...)` call sites must pass NAME as a
    /// string literal: a computed field name means someone is building
    /// JSON keys per record, which the access-log design forbids. The
    /// check is line-local (a call split across lines is not checked) and
    /// skips the function's own declaration/definition.
    void check_append_field(int lineno, const std::vector<std::string>& allows,
                            const std::string& stripped, const Token& tok) {
        // Declaration ("void append_field(...)" etc.): an identifier
        // immediately precedes the name.
        std::size_t before = tok.pos;
        while (before > 0 && stripped[before - 1] == ' ') --before;
        if (before > 0 && ident_char(stripped[before - 1])) return;

        std::size_t i = tok.pos + tok.text.size();
        while (i < stripped.size() && stripped[i] == ' ') ++i;
        if (i >= stripped.size() || stripped[i] != '(') return;
        // First comma at paren depth 1 ends the destination argument.
        int paren = 1;
        ++i;
        while (i < stripped.size() && (paren > 1 || stripped[i] != ',')) {
            if (stripped[i] == '(') ++paren;
            if (stripped[i] == ')' && --paren == 0) return;  // one-arg call
            ++i;
        }
        if (i >= stripped.size()) return;  // name argument on the next line
        ++i;
        while (i < stripped.size() && stripped[i] == ' ') ++i;
        if (i < stripped.size() && stripped[i] != '"') {
            report(lineno, allows, "accesslog-literal-field",
                   "access-log field name is not a string literal at this "
                   "call site; field names must never be computed per record");
        }
    }

    void scan_hex(int lineno, const std::vector<std::string>& allows,
                  const std::string& stripped) {
        if (catalog.msr_values.empty() || is_catalog_path(path)) return;
        for (std::size_t i = 0; i + 2 < stripped.size(); ++i) {
            if (stripped[i] != '0' || (stripped[i + 1] != 'x' && stripped[i + 1] != 'X')) {
                continue;
            }
            // A hex literal, not the tail of an identifier.
            if (i > 0 && ident_char(stripped[i - 1])) continue;
            std::size_t end = i + 2;
            while (end < stripped.size() &&
                   std::isxdigit(static_cast<unsigned char>(stripped[end])) != 0) {
                ++end;
            }
            if (end == i + 2) continue;
            const std::uint64_t value =
                std::strtoull(stripped.substr(i + 2, end - i - 2).c_str(), nullptr, 16);
            if (catalog.msr_values.count(value) != 0) {
                report(lineno, allows, "msr-catalog",
                       "raw MSR address 0x" + stripped.substr(i + 2, end - i - 2) +
                           "; use the named constant from msr/addresses.hpp");
            }
            i = end - 1;
        }
    }

    bool holding_lock() const {
        return std::any_of(guards.begin(), guards.end(),
                           [](const GuardScope& g) { return g.active; });
    }

    void update_regions(const std::string& stripped) {
        // Guard declarations are registered at the depth of the line they
        // appear on; the scope dies when its enclosing brace closes.
        for (const auto& tok : tokens_of(stripped)) {
            if (kGuardTokens.count(tok.text) != 0) {
                guards.push_back(GuardScope{depth, true});
                break;
            }
        }
        if (stripped.find(".unlock(") != std::string::npos) {
            for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
                if (it->active) {
                    it->active = false;
                    break;
                }
            }
        } else if (stripped.find(".lock(") != std::string::npos) {
            for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
                if (!it->active) {
                    it->active = true;
                    break;
                }
            }
        }
        for (const char c : stripped) {
            if (c == '{') ++depth;
            if (c == '}') {
                --depth;
                while (!guards.empty() && guards.back().depth > depth) {
                    guards.pop_back();
                }
            }
        }
    }
};

}  // namespace

std::string format(const Finding& finding) {
    return finding.path + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

Catalog load_catalog(const std::string& content) {
    Catalog catalog;
    bool in_block = false;
    std::stringstream ss{content};
    std::string raw;
    while (std::getline(ss, raw)) {
        const std::string stripped = strip_line(raw, in_block);
        std::size_t i = 0;
        while ((i = stripped.find("0x", i)) != std::string::npos) {
            std::size_t end = i + 2;
            while (end < stripped.size() &&
                   std::isxdigit(static_cast<unsigned char>(stripped[end])) != 0) {
                ++end;
            }
            if (end > i + 2 && (i == 0 || !ident_char(stripped[i - 1]))) {
                catalog.msr_values.insert(std::strtoull(
                    stripped.substr(i + 2, end - i - 2).c_str(), nullptr, 16));
            }
            i = end;
        }
    }
    return catalog;
}

std::vector<Finding> lint_file(const std::string& display_path,
                               const std::string& content, const Catalog& catalog) {
    FileScanner scanner{display_path, catalog};
    std::stringstream ss{content};
    std::string raw;
    int lineno = 0;
    while (std::getline(ss, raw)) {
        scanner.scan_line(++lineno, raw);
    }
    return std::move(scanner.findings);
}

TreeResult lint_tree(const std::vector<std::filesystem::path>& roots) {
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto& root : roots) {
        if (fs::is_regular_file(root)) {
            files.push_back(root);
            continue;
        }
        if (!fs::is_directory(root)) continue;
        for (const auto& entry : fs::recursive_directory_iterator{root}) {
            if (!entry.is_regular_file()) continue;
            const auto ext = entry.path().extension();
            if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
                files.push_back(entry.path());
            }
        }
    }
    std::sort(files.begin(), files.end());

    const auto slurp = [](const fs::path& p) {
        std::ifstream in{p, std::ios::binary};
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };

    Catalog catalog;
    for (const auto& f : files) {
        if (is_catalog_path(f.generic_string())) {
            catalog = load_catalog(slurp(f));
            break;
        }
    }

    TreeResult result;
    for (const auto& f : files) {
        const std::string display = f.generic_string();
        auto findings = lint_file(display, slurp(f), catalog);
        result.findings.insert(result.findings.end(),
                               std::make_move_iterator(findings.begin()),
                               std::make_move_iterator(findings.end()));
        ++result.files_scanned;
    }
    return result;
}

}  // namespace hsw::lint
