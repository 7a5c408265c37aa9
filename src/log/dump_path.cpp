#include "log/dump_path.hpp"

#include <sys/stat.h>

#include <cstdio>

namespace mgko::log {

namespace {

bool is_directory(const std::string& path)
{
    struct stat info{};
    return ::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode);
}

bool ends_with(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

}  // namespace


bool dump_to_stdout(const std::string& dest)
{
    return dest == "-" || dest == "1" || dest == "stdout";
}


std::string resolve_dump_path(const std::string& dest, const std::string& kind,
                              const std::string& name, const std::string& ext)
{
    if (dest.empty()) {
        return "mgko-" + kind + "-" + name + ext;
    }
    if (ends_with(dest, "/") || is_directory(dest)) {
        std::string dir = dest;
        if (!ends_with(dir, "/")) {
            dir += '/';
        }
        return dir + "mgko-" + kind + "-" + name + ext;
    }
    std::string prefix = dest;
    if (ends_with(prefix, ext)) {
        prefix.resize(prefix.size() - ext.size());
    }
    return prefix + "-" + name + ext;
}


std::string json_escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}


}  // namespace mgko::log
