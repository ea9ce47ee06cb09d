# Runs axihc and checks its exit code and what it reports. Run in script
# mode:
#
#   cmake -DAXIHC=<axihc binary> -DARGS="<config.ini>|--prove" -DEXIT=0 \
#         -DMATCH=<regex> [-DREPORT=<file>] -P expect_run.cmake
#
# ARGS separates the arguments with '|'. MATCH must match the run's stdout
# and stderr, or, when REPORT is given, the file the run writes there.
# Registered by tools/CMakeLists.txt (labels cli and static_check).

if(NOT DEFINED AXIHC OR NOT DEFINED ARGS OR NOT DEFINED EXIT
   OR NOT DEFINED MATCH)
  message(FATAL_ERROR "expect_run.cmake needs -DAXIHC -DARGS -DEXIT -DMATCH")
endif()
string(REPLACE "|" ";" args "${ARGS}")
if(DEFINED REPORT)
  file(REMOVE "${REPORT}")
  get_filename_component(report_dir "${REPORT}" DIRECTORY)
  file(MAKE_DIRECTORY "${report_dir}")
endif()
execute_process(
  COMMAND "${AXIHC}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "axihc ${args}: exit ${rc}, want ${EXIT}\n${out}")
endif()
set(where "the output")
if(DEFINED REPORT)
  if(NOT EXISTS "${REPORT}")
    message(FATAL_ERROR "axihc ${args}: wrote no ${REPORT}\n${out}")
  endif()
  file(READ "${REPORT}" out)
  set(where "${REPORT}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "axihc ${args}: ${where} does not match ${MATCH}\n${out}")
endif()
