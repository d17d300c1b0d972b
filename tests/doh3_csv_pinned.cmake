# Pin for the session paths no other pin reaches: DoH3, 0-RTT on every TLS
# and QUIC client, EDNS0 padding, and full handshakes without tickets or
# address tokens. Two small single-query studies each write their raw
# record CSV, which must stay bit-identical to the committed baseline:
#   zero_rtt.csv  DoT/DoH/DoQ/DoH3 against 0-RTT resolvers (early data on
#                 the first flight of every resumed session)
#   cold.csv      all six protocols, no resumption, no token, padded
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -DEXPECTED_0RTT=...
#         -DEXPECTED_COLD=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
set(zero_rtt_args --doh3 --0rtt --protocols=dot,doh,doq,doh3)
set(cold_args --doh3 --no-resumption --no-token --pad
    --protocols=doudp,dotcp,dot,doh,doq,doh3)
foreach(run zero_rtt cold)
  execute_process(COMMAND "${DOXPERF_BIN}" ${${run}_args} --resolvers=6
                          --reps=2 --csv=${run}.csv
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf ${${run}_args} failed (exit ${rc})")
  endif()
endforeach()
foreach(pair "zero_rtt;${EXPECTED_0RTT}" "cold;${EXPECTED_COLD}")
  list(GET pair 0 run)
  list(GET pair 1 expected)
  file(SHA256 "${WORK_DIR}/${run}.csv" actual)
  if(NOT actual STREQUAL "${expected}")
    message(FATAL_ERROR "${run}.csv drifted: sha256 ${actual} != pinned "
                        "${expected} — a transport session changed "
                        "observable wire behaviour")
  endif()
endforeach()
