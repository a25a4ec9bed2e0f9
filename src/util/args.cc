/**
 * @file
 * Argument-parser implementation.
 */

#include "util/args.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ganacc {
namespace util {

ArgParser::ArgParser(int argc, const char *const *argv)
{
    GANACC_ASSERT(argc >= 1, "argv must contain the program name");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0)
            fatal("unexpected positional argument '", token,
                  "' (flags are --name [value])");
        std::string name = token.substr(2);
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            values_[name.substr(0, eq)] = name.substr(eq + 1);
            continue;
        }
        // "--name value" unless the next token is another flag or the
        // end of the line (then it's boolean).
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[name] = argv[i + 1];
            ++i;
        } else {
            values_[name] = "";
        }
    }
}

std::optional<std::string>
ArgParser::rawValue(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

void
ArgParser::registerFlag(const std::string &name,
                        const std::string &default_text,
                        const std::string &help)
{
    for (const auto &r : registered_)
        if (r.name == name)
            return;
    registered_.push_back({name, default_text, help});
}

int
ArgParser::getInt(const std::string &name, int def,
                  const std::string &help)
{
    registerFlag(name, std::to_string(def), help);
    auto raw = rawValue(name);
    if (!raw)
        return def;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(raw->c_str(), &end, 10);
    if (raw->empty() || *end != '\0')
        fatal("--", name, " expects an integer, got '", *raw, "'");
    // strtol saturates (with ERANGE) instead of failing, and long may
    // be wider than int — reject both instead of silently narrowing.
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX)
        fatal("--", name, ": '", *raw, "' is out of the integer range ",
              INT_MIN, "..", INT_MAX);
    return int(v);
}

double
ArgParser::getDouble(const std::string &name, double def,
                     const std::string &help)
{
    registerFlag(name, std::to_string(def), help);
    auto raw = rawValue(name);
    if (!raw)
        return def;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(raw->c_str(), &end);
    if (raw->empty() || *end != '\0')
        fatal("--", name, " expects a number, got '", *raw, "'");
    // Overflow saturates to ±HUGE_VAL with ERANGE — reject it.
    // Underflow (tiny but representable-as-zero values) is accepted.
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        fatal("--", name, ": '", *raw,
              "' overflows the double range");
    return v;
}

std::string
ArgParser::getString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    registerFlag(name, def, help);
    auto raw = rawValue(name);
    return raw ? *raw : def;
}

bool
ArgParser::getFlag(const std::string &name, const std::string &help)
{
    registerFlag(name, "off", help);
    return values_.count(name) > 0;
}

int
ArgParser::getJobs()
{
    int requested = getInt(
        "jobs", 0,
        "worker threads for parallel sweeps (0 = GANACC_JOBS env or "
        "hardware concurrency)");
    if (requested < 0)
        fatal("--jobs expects a non-negative count, got ", requested);
    return resolveJobs(requested);
}

std::string
ArgParser::getTracePath()
{
    registerFlag("trace", "off",
                 "write a Chrome trace of telemetry spans to PATH "
                 "(bare --trace = ganacc_trace.json; default: "
                 "GANACC_TRACE env; empty = tracing off)");
    auto raw = rawValue("trace");
    if (raw)
        return raw->empty() ? "ganacc_trace.json" : *raw;
    const char *env = std::getenv("GANACC_TRACE");
    return env ? env : "";
}

bool
ArgParser::helpRequested() const
{
    return values_.count("help") > 0;
}

void
ArgParser::usage(std::ostream &os) const
{
    os << "usage: " << program_ << " [flags]\n";
    for (const auto &r : registered_)
        os << "  --" << r.name << " (default " << r.defaultText
           << "): " << r.help << "\n";
}

void
ArgParser::finish() const
{
    for (const auto &[name, value] : values_) {
        if (name == "help")
            continue;
        bool known = false;
        for (const auto &r : registered_)
            known |= r.name == name;
        if (!known)
            fatal("unknown flag --", name, " (try --help)");
    }
}

} // namespace util
} // namespace ganacc
