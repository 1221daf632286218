#include "util/argparse.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hpp"

namespace hermes {
namespace util {

namespace {

std::string
formatNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

} // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &default_value,
                   const std::string &help)
{
    HERMES_ASSERT(!flags_.count(name), "duplicate flag --", name);
    flags_[name] = Flag{default_value, help, {}};
    order_.push_back(name);
}

void
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            fail("unexpected positional argument '" + arg + "'");
        std::string name = arg.substr(2);
        std::string value;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else {
            if (i + 1 >= argc)
                fail("flag --" + name + " is missing a value");
            value = argv[++i];
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            fail("unknown flag --" + name);
        it->second.values.push_back(std::move(value));
    }
}

const ArgParser::Flag &
ArgParser::find(const std::string &name) const
{
    auto it = flags_.find(name);
    HERMES_ASSERT(it != flags_.end(), "undeclared flag --", name);
    return it->second;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    const Flag &flag = find(name);
    return flag.values.empty() ? flag.default_value : flag.values.back();
}

const std::vector<std::string> &
ArgParser::getAll(const std::string &name) const
{
    return find(name).values;
}

std::vector<std::string>
ArgParser::getList(const std::string &name) const
{
    const std::string &list = get(name);
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

double
ArgParser::getDouble(const std::string &name, double min, double max) const
{
    const auto &value = get(name);
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    // The negated test also rejects NaN.
    if (value.empty() || *end != '\0' || !(parsed >= min && parsed <= max)) {
        fail("flag --" + name + " expects a number in [" +
             formatNumber(min) + ", " + formatNumber(max) + "], got '" +
             value + "'");
    }
    return parsed;
}

bool
ArgParser::getBool(const std::string &name) const
{
    const auto &value = get(name);
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    fail("flag --" + name + " expects true/false, got '" + value + "'");
}

bool
ArgParser::given(const std::string &name) const
{
    return !find(name).values.empty();
}

void
ArgParser::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n",
                 program_.c_str(), message.c_str(), program_.c_str());
    std::exit(2);
}

void
ArgParser::printHelp() const
{
    std::printf("%s — %s\n\nflags:\n", program_.c_str(),
                description_.c_str());
    for (const auto &name : order_) {
        const auto &flag = flags_.at(name);
        std::printf("  --%-20s %s (default: %s)\n", name.c_str(),
                    flag.help.c_str(),
                    flag.default_value.empty() ? "\"\""
                                               : flag.default_value.c_str());
    }
}

} // namespace util
} // namespace hermes
