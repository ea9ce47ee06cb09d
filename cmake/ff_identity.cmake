# Fast-forward identity check for one INI: the kernel fast-forward must be
# bit-identical to naive stepping, plain and audited, and the audited runs
# must write byte-identical flight-recorder dumps. Observing never changes
# what is simulated: the audited run, and a run writing a trace and a
# metrics series, must print the plain run's digest. Run in script mode:
#
#   cmake -DAXIHC=<axihc binary> -DINI=<config.ini> -DWORK=<scratch dir> \
#         [-DCYCLES=50000] -P ff_identity.cmake
#
# Registered by tools/CMakeLists.txt as one ctest entry per example config
# (label ff_identity).

if(NOT DEFINED AXIHC OR NOT DEFINED INI OR NOT DEFINED WORK)
  message(FATAL_ERROR "ff_identity.cmake needs -DAXIHC, -DINI and -DWORK")
endif()
if(NOT DEFINED CYCLES)
  set(CYCLES 50000)
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs axihc on INI with the extra arguments and stores the state_digest
# line of its output in <out_var>. The exit code is not checked: an audit
# violation exits nonzero and still prints a digest.
function(run_digest out_var)
  execute_process(
    COMMAND "${AXIHC}" "${INI}" --cycles ${CYCLES} --digest ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_QUIET)
  string(REGEX MATCH "state_digest: [0-9a-f]+" digest "${out}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "no state_digest from axihc ${INI} ${ARGN}")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

run_digest(plain_ff)
run_digest(plain_noff --no-fast-forward)
if(NOT plain_ff STREQUAL plain_noff)
  message(FATAL_ERROR
          "fast-forward digest mismatch: ${plain_ff} vs ${plain_noff}")
endif()

run_digest(audit_ff --latency-audit --flight-out "${WORK}/ff.jsonl")
run_digest(audit_noff --latency-audit --flight-out "${WORK}/noff.jsonl"
           --no-fast-forward)
if(NOT audit_ff STREQUAL audit_noff)
  message(FATAL_ERROR
          "fast-forward audited digest mismatch: ${audit_ff} vs ${audit_noff}")
endif()
if(NOT audit_ff STREQUAL plain_ff)
  message(FATAL_ERROR "the audit moved the digest: ${plain_ff} vs ${audit_ff}")
endif()

run_digest(traced --trace-out "${WORK}/trace.json"
           --metrics-out "${WORK}/metrics.csv")
if(NOT traced STREQUAL plain_ff)
  message(FATAL_ERROR
          "trace/metrics moved the digest: ${plain_ff} vs ${traced}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}/ff.jsonl"
          "${WORK}/noff.jsonl"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "fast-forward flight-recorder mismatch")
endif()
message(STATUS "${plain_ff} plain, audited and traced; flight dumps equal")
