/**
 * @file
 * Minimal --key value command-line parser shared by the ebda_tool and
 * ebda_sweep front ends.
 *
 * Accepted forms:
 *   --key value     value = the next token, unless it is itself an
 *                   option (starts with "--" and does not parse as a
 *                   number, so negative values like --delta -0.5 or
 *                   even --delta --5 are taken as values);
 *   --key=value     unambiguous for any value, including ones that
 *                   begin with '-'/'--';
 *   --key           boolean flag (stored as "true").
 *
 * Unknown positional tokens are an error reported via error(). Every
 * lookup marks its key as read, so a front end can reject, via
 * unread(), an option that the chosen command never looked at.
 */

#ifndef EBDA_UTIL_CLI_HH
#define EBDA_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace ebda {

/** Parsed --key value argument map. */
class Args
{
  public:
    /** Parse argv[first..argc). Check error() afterwards. */
    Args(int argc, char **argv, int first);

    /** Value of --key, or fallback when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    /** True when --key was given (with or without a value). */
    bool has(const std::string &key) const { return find(key); }

    /** @name Typed getters.
     *  Return fallback and record an error() when the value does not
     *  parse. @{ */
    double getDouble(const std::string &key, double fallback) const;
    long getInt(const std::string &key, long fallback) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;
    /** @} */

    /** Empty when parsing succeeded. */
    const std::string &error() const { return bad; }

    /** The first given --key that no lookup has asked for, or empty. */
    std::string unread() const;

  private:
    /** Value of --key (nullptr when absent); marks the key read. */
    const std::string *find(const std::string &key) const;

    /** Full-token numeric check ("-0.5", "3e-2", ...). */
    static bool looksNumeric(const std::string &token);

    std::map<std::string, std::string> values;
    /** Keys looked up so far (lookups are logically const). */
    mutable std::set<std::string> read;
    /** Parse/typed-getter diagnostics (getters are logically const). */
    mutable std::string bad;
};

} // namespace ebda

#endif // EBDA_UTIL_CLI_HH
