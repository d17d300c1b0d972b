# Config-error contract of doxperf's engine runner: a malformed numeric flag
# or a config the runner cannot run must stop with exit status 2 and a
# message. A crash (a signal, e.g. exit 139) or a silent exit 0 fails here.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -P this_file
function(expect_exit_2)
  execute_process(COMMAND "${DOXPERF_BIN}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "doxperf ${ARGN}: expected exit 2, got '${rc}' "
                        "(stderr: ${err})")
  endif()
  if(NOT err MATCHES "doxperf: ")
    message(FATAL_ERROR "doxperf ${ARGN}: no error message (stderr: ${err})")
  endif()
endfunction()

expect_exit_2(engine --shards=1 --qps=abc)
expect_exit_2(engine --names=0)
