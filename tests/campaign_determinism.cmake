# Parallel campaign determinism: the --jobs=N runner must produce a CSV
# bit-identical to the --jobs=1 run. Buffers are recycled through
# thread-local pools, so any cross-thread state leak would show up here
# first.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(jobs 1 4)
  execute_process(COMMAND "${DOXPERF_BIN}" campaign --resolvers=6
                          --protocols=doudp,doq --reps=2 --jobs=${jobs}
                          --csv=jobs${jobs}.csv
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf campaign --jobs=${jobs} failed (exit ${rc})")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/jobs1.csv" "${WORK_DIR}/jobs4.csv"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "campaign CSV differs between --jobs=1 and --jobs=4")
endif()
