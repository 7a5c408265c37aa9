// Helpers shared by every artifact the log tier writes: destination
// resolution for the MGKO_TRACE / MGKO_METRICS dump switches, and the one
// JSON string escape the exporters use.  A dump destination can name
// stdout, a directory, or a path prefix, and each dump derives a per-run
// file name from it, so two benches in one pipeline never overwrite each
// other's artifacts:
//
//   "-" / "1" / "stdout"   print to stdout (dump_to_stdout)
//   "out/" or existing dir "out/mgko-<kind>-<name>.<ext>"
//   "out/run3"             "out/run3-<name>.<ext>"   (path prefix)
//   "out/run3.json"        "out/run3-<name>.json"    (extension re-applied)
//
// so MGKO_TRACE=/tmp/obs/ keeps fig5a and fig5b traces side by side.
#pragma once

#include <string>
#include <string_view>

namespace mgko::log {


/// True when `dest` selects stdout ("-", "1", or "stdout").
bool dump_to_stdout(const std::string& dest);

/// Resolves a dump destination to a concrete file path.  `kind` is the
/// artifact family ("profile", "trace", "metrics"), `name` the
/// per-run label (the bench figure id), `ext` the extension including the
/// dot (".json", ".txt").  See the table above for the rules; `dest` is
/// treated as a directory when it exists as one or ends with '/'.
std::string resolve_dump_path(const std::string& dest, const std::string& kind,
                              const std::string& name, const std::string& ext);

/// `text` escaped for use inside a JSON string literal: quotes,
/// backslashes, \n, \r and \t, and every other byte below 0x20 as
/// \u00XX.  The one JSON string escaper; config::Json::dump() uses it too.
std::string json_escape(std::string_view text);


}  // namespace mgko::log
