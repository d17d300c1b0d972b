# Pin for the handshake paths no CSV pin reaches: the stdout of four bench
# binaries, each deterministic from its built-in seed.
#   table1_sizes        handshake and response bytes per protocol
#   ablation_features   amplification stalls in full handshakes and the
#                       certificate-size sweep, 0-RTT on DoT and DoQ, Retry
#                       and address tokens, TCP Fast Open
#   future_doh3         DoH3 against DoQ and DoH
#   fig1_resolver_scan  the scanner's DoQ ALPN-verification handshakes
#
# Invoked by ctest as:
#   cmake -DBENCH_DIR=... -DWORK_DIR=... -DEXPECTED_TABLE1=...
#         -DEXPECTED_ABLATION=... -DEXPECTED_DOH3=... -DEXPECTED_FIG1=...
#         -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(pair "table1_sizes;${EXPECTED_TABLE1}"
             "ablation_features;${EXPECTED_ABLATION}"
             "future_doh3;${EXPECTED_DOH3}"
             "fig1_resolver_scan;${EXPECTED_FIG1}")
  list(GET pair 0 bench)
  list(GET pair 1 expected)
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_FILE "${WORK_DIR}/${bench}.out")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (exit ${rc})")
  endif()
  file(SHA256 "${WORK_DIR}/${bench}.out" actual)
  if(NOT actual STREQUAL "${expected}")
    message(FATAL_ERROR "${bench} output drifted: sha256 ${actual} != "
                        "pinned ${expected} — a handshake path's bytes, "
                        "round trips or outcomes changed")
  endif()
endforeach()
