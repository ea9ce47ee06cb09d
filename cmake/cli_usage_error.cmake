# A malformed axihc command line must be a usage error: exit code 2 and the
# usage text on stderr, never a run. Run in script mode:
#
#   cmake -DAXIHC=<axihc binary> -DARGS="<config.ini>|--cycles|1e3" \
#         -P cli_usage_error.cmake
#
# ARGS separates the arguments with '|'. Registered by tools/CMakeLists.txt
# (label cli).

if(NOT DEFINED AXIHC OR NOT DEFINED ARGS)
  message(FATAL_ERROR "cli_usage_error.cmake needs -DAXIHC and -DARGS")
endif()
string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND "${AXIHC}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: axihc")
  message(FATAL_ERROR
          "axihc ${args}: exit ${rc}, want 2 with the usage text\n${err}")
endif()
