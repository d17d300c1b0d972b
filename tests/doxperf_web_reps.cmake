# `doxperf --web` honours --reps: two repetitions of the one-testbed web
# study write twice the records of one.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(reps 1 2)
  execute_process(COMMAND "${DOXPERF_BIN}" --web --resolvers=2
                          --pages=wikipedia.org --loads=1 --reps=${reps}
                          --csv=reps${reps}.csv
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf --web --reps=${reps} failed (exit ${rc})")
  endif()
  file(STRINGS "${WORK_DIR}/reps${reps}.csv" lines)
  list(LENGTH lines count)
  math(EXPR rows${reps} "${count} - 1")  # minus the header
endforeach()
math(EXPR doubled "2 * ${rows1}")
if(rows1 EQUAL 0 OR NOT rows2 EQUAL doubled)
  message(FATAL_ERROR "doxperf --web wrote ${rows1} rows at --reps=1 and "
                      "${rows2} at --reps=2; expected twice as many")
endif()
