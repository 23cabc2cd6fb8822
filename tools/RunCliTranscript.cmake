# Runs optabs-cli over the example programs and fails unless the joined
# stdout is byte-identical to the checked-in golden transcript; each run's
# output follows a "$ optabs-cli ARGS" line. Invoked by the
# CliGoldenTranscript test (and the CI release job) as:
#
#   cmake -DCLI=<binary> -DPROGRAMS=<examples/programs dir> -DGOLDEN=<golden>
#         -DACTUAL=<scratch output> -P RunCliTranscript.cmake
#
# The runs cover both clients: type-state under the stress property and
# under a property automaton, and escape with and without --audit. The
# last three runs also write an --event-trace, appended after the run under
# a "$ cat trace.jsonl" line: a step-budget cut (budget_exhausted events and
# an unresolved full-form verdict), and the greedy-grow and
# eliminate-current strategies. Each trace's "seconds" fields are zeroed as
# RunServeTranscript.cmake's SCRUB does; every other field is deterministic.

set(FILE_PROPERTY "init=closed; open: closed->opened, opened->ERR; close: opened->closed, closed->ERR")
set(TRANSCRIPT "")

# Appends the run just made (OUT, RC) under a "$ optabs-cli ARGS" line.
macro(append_run ARGS)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "optabs-cli ${ARGS} exited with status ${RC}")
  endif()
  string(APPEND TRANSCRIPT "$ optabs-cli ${ARGS}\n${OUT}")
endmacro()

set(TRACE ${ACTUAL}.trace.jsonl)

# Appends the event trace the run just made wrote to TRACE.
macro(append_trace)
  file(READ ${TRACE} TRACE_TEXT)
  string(REGEX REPLACE "\"seconds\":[0-9.eE+-]+" "\"seconds\":0"
         TRACE_TEXT "${TRACE_TEXT}")
  string(APPEND TRANSCRIPT "$ cat trace.jsonl\n${TRACE_TEXT}")
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

execute_process(COMMAND ${CLI} ${PROGRAMS}/worklist.opt --client=escape
                        --step-budget=20 --event-trace=${TRACE}
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("worklist.opt --client=escape --step-budget=20 --event-trace=trace.jsonl")
append_trace()

execute_process(COMMAND ${CLI} ${PROGRAMS}/figure1.opt --client=typestate
                        --strategy=greedy-grow --event-trace=${TRACE}
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("figure1.opt --client=typestate --strategy=greedy-grow --event-trace=trace.jsonl")
append_trace()

execute_process(COMMAND ${CLI} ${PROGRAMS}/figure6.opt --client=escape
                        --strategy=eliminate-current --event-trace=${TRACE}
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC)
append_run("figure6.opt --client=escape --strategy=eliminate-current --event-trace=trace.jsonl")
append_trace()

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
