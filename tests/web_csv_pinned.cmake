# Pin for the web study: page loads through the DNS proxy over all five
# protocols (DoT connection reuse, H2 multiplexing, DoQ streams and DoUDP
# retries under real page dependency graphs). The campaign's raw record CSV
# must stay bit-identical to the committed baseline.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -DEXPECTED_SHA256=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${DOXPERF_BIN}" campaign --web --resolvers=3
                        --loads=1 --jobs=2 --csv=web.csv
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "doxperf campaign --web failed (exit ${rc})")
endif()
file(SHA256 "${WORK_DIR}/web.csv" actual)
if(NOT actual STREQUAL "${EXPECTED_SHA256}")
  message(FATAL_ERROR "web.csv drifted: sha256 ${actual} != pinned "
                      "${EXPECTED_SHA256} — the web study's wire behaviour "
                      "changed")
endif()
