# Batched-delivery outcome determinism: turning on --batch-us coalesces
# UDP datagrams into burst events, which legitimately changes the event
# COUNT and ORDER (so the event-stream digest differs) — but must never
# change any query's outcome. This pins exactly that, two ways:
#
#  1. Across batch settings (0 vs 200 us), at one shard and at eight, the
#     outcome-comparable columns must match per shard: arrivals, sent,
#     answered, servfails, timeouts, shed, queries, and the commutative
#     outcome digest (splitmix64(seed ^ sent_at, outcome) summed — see
#     EngineShard::outcome_digest). Columns are found by header name, and a
#     missing one fails the test. Cache/miss counters and event digests are
#     excluded: delivery-time quantization may shift WHICH layer answers,
#     never WHETHER a query is answered.
#  2. With batching on, the full CSV (every column, digests included) must
#     still be bit-identical run over run — batching must not introduce
#     any scheduling dependence.
#
# Invoked by ctest as:
#   cmake -DDOXPERF_BIN=... -DWORK_DIR=... -P this_file
cmake_policy(SET CMP0007 NEW)  # keep the merged row's empty CSV fields
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_engine shards batch_us out_csv)
  execute_process(COMMAND "${DOXPERF_BIN}" engine --shards=${shards}
                          --clients=5000 --qps=3000 --seconds=2
                          --batch-us=${batch_us}
                          --shard-csv=${out_csv}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "doxperf engine --shards=${shards} "
                        "--batch-us=${batch_us} failed (exit ${rc})")
  endif()
endfunction()

# Columns of the shard CSV that must be invariant to the batch window,
# selected by header name so the check follows the CSV as columns come and
# go: the per-shard load and query counts, and the outcome digest (the
# merged row carries only the digest).
set(OUTCOME_COLUMNS shard arrivals sent answered servfails timeouts shed
                    queries)
function(reduce_outcomes path out_var)
  file(STRINGS "${path}" lines)
  list(GET lines 0 header_line)
  string(REPLACE "," ";" header "${header_line}")
  set(indices "")
  foreach(column IN LISTS OUTCOME_COLUMNS ITEMS outcomes)
    list(FIND header "${column}" index)
    if(index EQUAL -1)
      message(FATAL_ERROR "${path}: no '${column}' column in the header "
                          "'${header_line}'")
    endif()
    list(APPEND indices ${index})
  endforeach()
  list(POP_BACK indices outcomes_index)
  set(reduced "")
  foreach(line IN LISTS lines)
    string(REPLACE "," ";" fields "${line}")
    list(GET fields 0 first)
    if(first STREQUAL "shard")
      continue()
    endif()
    list(GET fields ${outcomes_index} outcomes)
    if(first STREQUAL "merged")
      string(APPEND reduced "merged outcomes=${outcomes}\n")
    else()
      list(GET fields ${indices} head)
      string(REPLACE ";" "," head "${head}")
      string(APPEND reduced "${head} outcomes=${outcomes}\n")
    endif()
  endforeach()
  set(${out_var} "${reduced}" PARENT_SCOPE)
endfunction()

foreach(shards 1 8)
  run_engine(${shards} 0 batch0_s${shards}.csv)
  run_engine(${shards} 200 batch200_s${shards}.csv)
  reduce_outcomes("${WORK_DIR}/batch0_s${shards}.csv" base)
  reduce_outcomes("${WORK_DIR}/batch200_s${shards}.csv" batched)
  if(NOT base STREQUAL batched)
    message(FATAL_ERROR "per-query outcomes differ between --batch-us=0 "
                        "and --batch-us=200 at --shards=${shards}:\n"
                        "--- batch 0 ---\n${base}"
                        "--- batch 200 ---\n${batched}")
  endif()
endforeach()

# Run-to-run determinism with batching on: the whole file, digests and all.
run_engine(8 200 batch200_rerun.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/batch200_s8.csv"
                        "${WORK_DIR}/batch200_rerun.csv"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "shard CSV differs between runs at --batch-us=200")
endif()
