#include "cli.hh"

#include <cerrno>
#include <cstdlib>

namespace ebda {

bool
Args::looksNumeric(const std::string &token)
{
    // Strip one leading option dash so "--5" counts as numeric -5.
    const char *s = token.c_str();
    if (token.size() >= 2 && token[0] == '-' && token[1] == '-')
        s += 1;
    if (*s == '\0')
        return false;
    char *end = nullptr;
    std::strtod(s, &end);
    return end && *end == '\0' && end != s;
}

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            bad = "unexpected argument '" + token + "'";
            return;
        }
        std::string body = token.substr(2);
        if (body.empty()) {
            bad = "bare '--' is not an option";
            return;
        }
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            values[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        if (i + 1 < argc) {
            const std::string next = argv[i + 1];
            // The next token is a value unless it is an option itself;
            // numeric tokens ("-0.5", "--5") are always values.
            if (next.rfind("--", 0) != 0 || looksNumeric(next)) {
                std::string v = next;
                if (v.rfind("--", 0) == 0 && looksNumeric(v))
                    v = v.substr(1); // "--5" was meant as -5
                values[body] = v;
                ++i;
                continue;
            }
        }
        values[body] = "true"; // boolean flag
    }
}

const std::string *
Args::find(const std::string &key) const
{
    read.insert(key);
    const auto it = values.find(key);
    return it == values.end() ? nullptr : &it->second;
}

std::string
Args::unread() const
{
    for (const auto &[key, value] : values)
        if (!read.count(key))
            return key;
    return {};
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

double
Args::getDouble(const std::string &key, double fallback) const
{
    const std::string *text = find(key);
    if (!text)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(text->c_str(), &end);
    if (!end || *end != '\0' || end == text->c_str()) {
        bad = "--" + key + " expects a number, got '" + *text + "'";
        return fallback;
    }
    return v;
}

long
Args::getInt(const std::string &key, long fallback) const
{
    const std::string *text = find(key);
    if (!text)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text->c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || end == text->c_str()) {
        bad = "--" + key + " expects an integer, got '" + *text + "'";
        return fallback;
    }
    return v;
}

std::uint64_t
Args::getU64(const std::string &key, std::uint64_t fallback) const
{
    const std::string *text = find(key);
    if (!text)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const auto v = std::strtoull(text->c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || end == text->c_str()) {
        bad = "--" + key + " expects an unsigned integer, got '" + *text
              + "'";
        return fallback;
    }
    return v;
}

} // namespace ebda
