# Pin for the campaign runner: the single-query campaign's raw record and
# failure CSVs and the adverse-path study's CSV (five link profiles with
# real congestion control), each run on two threads. Every cell gets its own
# testbed, seeded from the campaign seed and the cell's index, so these
# hashes cover the cell enumeration, the per-cell seeding and the merge
# order as well as the wire behaviour.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -DEXPECTED_SINGLE=...
#         -DEXPECTED_FAILURE=... -DEXPECTED_ADVERSE=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
set(single_args campaign --resolvers=6 --reps=2 --jobs=2 --csv=single.csv
    --failure-csv=failure.csv)
set(adverse_args adverse --smoke --jobs=2 --csv=adverse.csv)
foreach(run single adverse)
  execute_process(COMMAND "${DOXPERF_BIN}" ${${run}_args}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf ${${run}_args} failed (exit ${rc})")
  endif()
endforeach()
foreach(pair "single;${EXPECTED_SINGLE}" "failure;${EXPECTED_FAILURE}"
             "adverse;${EXPECTED_ADVERSE}")
  list(GET pair 0 csv)
  list(GET pair 1 expected)
  file(SHA256 "${WORK_DIR}/${csv}.csv" actual)
  if(NOT actual STREQUAL "${expected}")
    message(FATAL_ERROR "${csv}.csv drifted: sha256 ${actual} != pinned "
                        "${expected} — the campaign runner's cells, seeds "
                        "or merge order changed")
  endif()
endforeach()
