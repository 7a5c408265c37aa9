# Layering gate, run by ctest as Layering.CoreConfigLogIncludeNoServeHeader:
# fails when any file under src/core, src/config or src/log includes a
# serve/ header.  The server layer sits on top of them; executors and
# solver configs start no servers.
#   cmake -DMGKO_SRC=<repo>/src -P tests/check_layering.cmake
file(GLOB_RECURSE sources
     ${MGKO_SRC}/core/* ${MGKO_SRC}/config/* ${MGKO_SRC}/log/*)
list(LENGTH sources count)
if(count EQUAL 0)
    message(FATAL_ERROR "no sources under ${MGKO_SRC}/{core,config,log}")
endif()
set(violations "")
foreach(source ${sources})
    file(STRINGS ${source} lines
         REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"]([^\">]*/)?serve/")
    foreach(line ${lines})
        list(APPEND violations "${source}: ${line}")
    endforeach()
endforeach()
if(violations)
    list(JOIN violations "\n" report)
    message(FATAL_ERROR "lower layers include serve/ headers:\n${report}")
endif()
message(STATUS "${count} files under core/, config/, log/: no serve/ include")
