# Golden-output check for the figure benches: runs each binary named in
# BENCHES (a comma-separated list, looked up in BENCH_DIR) and compares its
# stdout byte for byte with GOLDEN_DIR/<name>.txt. Every output is a
# function of virtual time only, so any difference is a behaviour change:
# review it, then refresh the golden with `<bench> > bench/golden/<bench>.txt`.
#
#   cmake -DBENCH_DIR=build/bench -DGOLDEN_DIR=bench/golden \
#         -DBENCHES=bench_fig4_timeline,bench_fig8_p2p_bandwidth -P golden_check.cmake
string(REPLACE "," ";" benches "${BENCHES}")
set(failed "")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${bench} (exit ${rc})")
    continue()
  endif()
  file(READ "${GOLDEN_DIR}/${bench}.txt" expected)
  if(NOT actual STREQUAL expected)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${bench}.actual.txt")
    file(WRITE "${actual_file}" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN_DIR}/${bench}.txt" "${actual_file}")
    list(APPEND failed "${bench} (output differs; written to ${actual_file})")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "golden mismatch: ${failed}")
endif()
