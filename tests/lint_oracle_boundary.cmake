# The oracle-boundary lint (ctest label `lint`): fails when production code
# reaches a differential oracle or the bench-side adversarial sweep. A file under
# src/ outside src/oracle/ may not include an oracle/ header nor name a
# single-task oracle knob (kScalarOracle, kFullSolve, ProbeStrategy,
# DpKernel, scratch_probes), and nothing under src/sim may name
# run_adversarial_sweep, which lives in bench/harness.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint_oracle_boundary.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<repo>/src")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
set(hits "")
foreach(source IN LISTS sources)
  file(RELATIVE_PATH relative "${SRC_DIR}" "${source}")
  if(relative MATCHES "^oracle/")
    continue()
  endif()
  set(pattern "#[ \t]*include[ \t]*[\"<]oracle/|kScalarOracle|kFullSolve|ProbeStrategy|DpKernel|scratch_probes")
  if(relative MATCHES "^sim/")
    string(APPEND pattern "|run_adversarial_sweep")
  endif()
  file(STRINGS "${source}" matches REGEX "${pattern}")
  foreach(match IN LISTS matches)
    string(APPEND hits "\n  ${source}: ${match}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "oracle or sweep code reached from production src/:${hits}")
endif()
list(LENGTH sources count)
message(STATUS "oracle-boundary lint: ${count} files clean")
