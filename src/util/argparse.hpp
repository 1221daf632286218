/**
 * @file
 * The command-line flag parser every tool and example binary uses.
 *
 * Supports --name value and --name=value forms, typed accessors with
 * defaults, range-checked numbers, repeatable flags and an
 * auto-generated --help. Usage errors (unknown flag, missing value,
 * positional argument, bad or out-of-range value) print the message and
 * a --help hint to stderr and exit with status 2, which keeps them
 * apart from a binary's exit 1 for bad data; --help exits 0.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hermes {
namespace util {

/**
 * Parse all of @p text as a base-10 integer. False on a non-number,
 * trailing junk, a sign an unsigned T cannot hold, or overflow; @p out
 * is written only on success.
 */
template <typename T>
bool
parseInt(std::string_view text, T &out)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** Declarative flag parser. */
class ArgParser
{
  public:
    /**
     * @param program     argv[0]-style program name for help output.
     * @param description One-line tool description.
     */
    ArgParser(std::string program, std::string description);

    /**
     * Declare a flag.
     * @param name          Flag name without leading dashes.
     * @param default_value Default (also shown in --help).
     * @param help          Help text.
     */
    void addFlag(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /** Parse argv. Exits 0 on --help and 2 on a usage error. */
    void parse(int argc, char **argv);

    /** String value of @p name: the last one given, else the default. */
    const std::string &get(const std::string &name) const;

    /** Every value given for a repeatable flag, in order (may be empty). */
    const std::vector<std::string> &getAll(const std::string &name) const;

    /** The value of @p name split on commas, empty entries dropped. */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * Integer value of @p name, which must lie in [min, max]. A
     * non-number, trailing junk, a negative value for an unsigned T,
     * overflow or a value outside the range is a usage error.
     */
    template <typename T = long>
    T getInt(const std::string &name, T min = std::numeric_limits<T>::min(),
             T max = std::numeric_limits<T>::max()) const
    {
        const std::string &text = get(name);
        T value{};
        if (!parseInt(text, value) || value < min || value > max) {
            fail("flag --" + name + " expects an integer in [" +
                 std::to_string(min) + ", " + std::to_string(max) +
                 "], got '" + text + "'");
        }
        return value;
    }

    /** Number value of @p name, which must lie in [min, max]. */
    double getDouble(const std::string &name, double min = -HUGE_VAL,
                     double max = HUGE_VAL) const;

    /** true/1/yes or false/0/no; anything else is a usage error. */
    bool getBool(const std::string &name) const;

    /** True if the user explicitly supplied the flag. */
    bool given(const std::string &name) const;

    /** Report a usage error: message and --help hint to stderr, exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Print usage to stdout. */
    void printHelp() const;

  private:
    struct Flag
    {
        std::string default_value;
        std::string help;
        std::vector<std::string> values;
    };

    const Flag &find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

} // namespace util
} // namespace hermes
