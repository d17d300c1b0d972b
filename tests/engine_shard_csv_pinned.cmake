# Event-stream pin for the sharded engine: the per-shard CSV of three fixed
# runs must hash to committed values. The CSV carries each shard's event
# count, event-stream digest and outcome digest, so a match means every
# shard executed the same events at the same simulated times in the same
# order as when the hashes were recorded. engine_shards_deterministic only
# compares a run with itself; this pins the streams across code changes, so
# a refactor of the simulator, the arrival feed or the swarm client that
# moves a single event fails here.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -DEXPECTED_SHARDS1=...
#         -DEXPECTED_SHARDS4=... -DEXPECTED_SHARDS4_BATCH=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_pin label expected)
  execute_process(COMMAND "${DOXPERF_BIN}" engine --clients=5000 --qps=3000
                          --seconds=2 ${ARGN} --shard-csv=${label}.csv
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf engine ${ARGN} failed (exit ${rc})")
  endif()
  file(SHA256 "${WORK_DIR}/${label}.csv" actual)
  if(NOT actual STREQUAL "${expected}")
    message(FATAL_ERROR "shard CSV for '${ARGN}' drifted: sha256 ${actual} "
                        "!= pinned ${expected} — a shard's event stream or "
                        "outcomes changed")
  endif()
endfunction()

check_pin(shards1 "${EXPECTED_SHARDS1}" --shards=1)
check_pin(shards4 "${EXPECTED_SHARDS4}" --shards=4)
check_pin(shards4_batch "${EXPECTED_SHARDS4_BATCH}" --shards=4
          --batch-us=200)
