# Pipes a scripted session that sends "trace" ops through optabs-serve
# with --trace-jsonl armed, and fails unless the shutdown export holds at
# least as many events as the "trace" ops printed: a "trace" op moves the
# recorder's delivery cursor, it must not empty the ring the export reads.
# Invoked by the ServeTraceExportKeepsDrainedEvents test as:
#
#   cmake -DSERVE=<binary> -DINPUT=<session.jsonl> -DEXPORT=<jsonl path>
#         -P RunTraceExport.cmake

file(REMOVE ${EXPORT})
execute_process(
  COMMAND ${SERVE} --threads=2 --trace-capacity=4096 --trace-jsonl=${EXPORT}
  INPUT_FILE ${INPUT}
  OUTPUT_VARIABLE TRANSCRIPT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "optabs-serve exited with status ${RC}")
endif()

string(REGEX MATCHALL "\"op\":\"trace-event\"" PRINTED "${TRANSCRIPT}")
list(LENGTH PRINTED NUM_PRINTED)
set(NUM_EXPORTED 0)
if(EXISTS ${EXPORT})
  file(READ ${EXPORT} EXPORTED)
  string(REGEX MATCHALL "\n" LINES "${EXPORTED}")
  list(LENGTH LINES NUM_EXPORTED)
endif()
if(NUM_PRINTED EQUAL 0 OR NUM_EXPORTED LESS NUM_PRINTED)
  message(FATAL_ERROR "the trace ops printed ${NUM_PRINTED} events but "
                      "${EXPORT} holds ${NUM_EXPORTED} lines")
endif()
message(STATUS "trace ops printed ${NUM_PRINTED} events; "
               "the shutdown export holds ${NUM_EXPORTED}")
