# Runs optabs-cli over the example programs and fails unless the joined
# stdout is byte-identical to the checked-in golden transcript; each run's
# output follows a "$ optabs-cli ARGS" line. Invoked by the
# CliGoldenTranscript test (and the CI release job) as:
#
#   cmake -DCLI=<binary> -DPROGRAMS=<examples/programs dir> -DGOLDEN=<golden>
#         -DACTUAL=<scratch output> -P RunCliTranscript.cmake
#
# The runs cover both clients: type-state under the stress property and
# under a property automaton, and escape with and without --audit.

set(FILE_PROPERTY "init=closed; open: closed->opened, opened->ERR; close: opened->closed, closed->ERR")
set(TRANSCRIPT "")

# Appends the run just made (OUT, RC) under a "$ optabs-cli ARGS" line.
macro(append_run ARGS)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "optabs-cli ${ARGS} exited with status ${RC}")
  endif()
  string(APPEND TRANSCRIPT "$ optabs-cli ${ARGS}\n${OUT}")
endmacro()

execute_process(COMMAND ${CLI} ${PROGRAMS}/figure1.opt --client=typestate
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("figure1.opt --client=typestate")

execute_process(COMMAND ${CLI} ${PROGRAMS}/figure1.opt --client=typestate
                        "--property=${FILE_PROPERTY}"
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("figure1.opt --client=typestate --property=${FILE_PROPERTY}")

execute_process(COMMAND ${CLI} ${PROGRAMS}/figure6.opt --client=escape --k=1
                        --audit
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("figure6.opt --client=escape --k=1 --audit")

execute_process(COMMAND ${CLI} ${PROGRAMS}/worklist.opt --client=escape
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("worklist.opt --client=escape")

file(WRITE ${ACTUAL} "${TRANSCRIPT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  file(READ ${GOLDEN} GOLDEN_TEXT)
  message(FATAL_ERROR "cli transcript diverged from ${GOLDEN}\n"
                      "--- expected ---\n${GOLDEN_TEXT}\n"
                      "--- actual ---\n${TRANSCRIPT}")
endif()
