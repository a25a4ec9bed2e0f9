/**
 * @file
 * Minimal command-line flag parser for the examples and benches.
 *
 * Flags are "--name value" or "--name=value"; bare "--name" is a
 * boolean. Every lookup registers the flag with its default and help
 * text so usage() can print an accurate synopsis, and finish() rejects
 * unknown flags (typos fail loudly instead of silently running the
 * default experiment).
 */

#ifndef GANACC_UTIL_ARGS_HH
#define GANACC_UTIL_ARGS_HH

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace ganacc {
namespace util {

/** Typed access to "--flag value" style command lines. */
class ArgParser
{
  public:
    ArgParser(int argc, const char *const *argv);

    /** Integer flag with default and help text. */
    int getInt(const std::string &name, int def,
               const std::string &help);

    /** Floating-point flag. */
    double getDouble(const std::string &name, double def,
                     const std::string &help);

    /** String flag. */
    std::string getString(const std::string &name,
                          const std::string &def,
                          const std::string &help);

    /** Boolean flag (present => true). */
    bool getFlag(const std::string &name, const std::string &help);

    /**
     * Worker-count flag for the parallel sweep engine: registers
     * "--jobs N" and resolves it through util::resolveJobs — an
     * explicit N wins, then the GANACC_JOBS environment variable,
     * then std::thread::hardware_concurrency(). Always >= 1.
     */
    int getJobs();

    /**
     * Telemetry trace output for the observability layer: registers
     * "--trace [PATH]"; an explicit path wins, a bare --trace selects
     * "ganacc_trace.json", then the GANACC_TRACE environment
     * variable, else "" (tracing off).
     */
    std::string getTracePath();

    /** True when --help was passed. */
    bool helpRequested() const;

    /** Print the registered synopsis. */
    void usage(std::ostream &os) const;

    /**
     * Validate: throws FatalError listing any flag the user passed
     * that no getter registered. Call after all getters.
     */
    void finish() const;

    const std::string &program() const { return program_; }

  private:
    std::optional<std::string> rawValue(const std::string &name) const;
    void registerFlag(const std::string &name,
                      const std::string &default_text,
                      const std::string &help);

    std::string program_;
    std::map<std::string, std::string> values_; ///< name -> raw value
    struct Registered
    {
        std::string name;
        std::string defaultText;
        std::string help;
    };
    std::vector<Registered> registered_;
};

} // namespace util
} // namespace ganacc

#endif // GANACC_UTIL_ARGS_HH
