# Runs one example or bench program as a test: it must exit 0 and print a
# line matching the regular expression EXPECT (its verdict line).
# Usage: cmake -DPROGRAM=<path> -DEXPECT=<regex> -P program_smoke.cmake
execute_process(COMMAND ${PROGRAM} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} printed no line matching '${EXPECT}':\n${out}")
endif()
