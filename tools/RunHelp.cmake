# Runs `${TOOL} --help` and fails unless it exits 0 and its standard output
# matches the regex ${EXPECT}.
#
#   cmake -DTOOL=path/to/tool -DEXPECT=regex -P RunHelp.cmake
execute_process(COMMAND ${TOOL} --help
                RESULT_VARIABLE Status
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${TOOL} --help exited with ${Status}:\n${Err}")
endif()
if(NOT Out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} --help does not match '${EXPECT}':\n${Out}")
endif()
