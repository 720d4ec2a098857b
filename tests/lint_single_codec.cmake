# The single-codec lint (ctest label `lint`): fails when code in src/ outside
# src/common/text.{hpp,cpp} does a job that module owns — encodes a double
# with "%.17g", parses a number with from_chars, tokenizes with an
# istringstream, or reads a whole file through rdbuf.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint_single_codec.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<repo>/src")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
set(hits "")
foreach(source IN LISTS sources)
  if(source MATCHES "/common/text\\.(hpp|cpp)$")
    continue()
  endif()
  file(STRINGS "${source}" matches REGEX "%\\.17g|from_chars|istringstream|rdbuf")
  foreach(match IN LISTS matches)
    string(APPEND hits "\n  ${source}: ${match}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "text-codec jobs outside src/common/text.{hpp,cpp}:${hits}")
endif()
list(LENGTH sources count)
message(STATUS "single-codec lint: ${count} files clean")
