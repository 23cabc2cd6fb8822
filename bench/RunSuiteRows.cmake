# Runs bench_export_csv over the paper suite and fails unless every row
# matches the checked-in golden with the seconds column blanked: verdicts,
# iterations, cheapest sizes and abstractions, and exhaustion sites must
# all be unchanged. Every budget default counts steps, not wall time, so
# the rows are deterministic. Invoked by the SuiteRowsGolden test (and the
# CI release job) as:
#
#   cmake -DEXPORT=<bench_export_csv binary> -DGOLDEN=<golden>
#         -DACTUAL=<scratch output> -P RunSuiteRows.cmake

execute_process(COMMAND ${EXPORT} OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${EXPORT} exited with status ${RC}")
endif()

# Blank the sixth column (seconds) of every row; the header keeps its name.
string(REGEX REPLACE
       "\n([^,\n]*,[^,\n]*,[^,\n]*,[^,\n]*,[^,\n]*,)[^,\n]*" "\n\\1"
       ROWS "${OUT}")
file(WRITE ${ACTUAL} "${ROWS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR "suite rows diverged from ${GOLDEN}; "
                      "compare with: diff ${GOLDEN} ${ACTUAL}")
endif()
