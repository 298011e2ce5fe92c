# CLI-level streamed-sweep gate, run as a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P streamed_sweep.cmake
#
# Runs a small in-process sweep in 2-case blocks on a 3-worker pool and on
# a 1-worker pool (the serial loop). The two digests must be
# bit-identical, and the pooled run's --report must count exactly one
# pool task: the engine streams every block through one ordered loop
# instead of dispatching (and waiting for) one task per block.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P streamed_sweep.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(SWEEP_ARGS sweep --quiet --regions DE,FR --kinds average --nodes 16
    --jobs 20 --days 1 --replicas 6 --sched fcfs,easy --block 2)

function(run_sweep out_var threads)
  execute_process(
    COMMAND ${CLI} ${SWEEP_ARGS} --threads ${threads} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep --threads ${threads} exited ${rc}:\n${out}\n${err}")
  endif()
  string(REGEX MATCH "digest: ([0-9a-f]+)" _ "${out}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "sweep --threads ${threads} printed no digest line:\n${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

run_sweep(serial 1)
run_sweep(pooled 3 --report "${WORKDIR}/report.json")

if(NOT serial STREQUAL pooled)
  message(FATAL_ERROR "streamed sweep digest diverged: --threads 1 ${serial} "
                      "vs --threads 3 ${pooled}")
endif()

file(READ "${WORKDIR}/report.json" report)
string(JSON tasks ERROR_VARIABLE json_err GET "${report}" metrics counters pool.tasks)
if(json_err)
  message(FATAL_ERROR "report has no metrics.counters.pool.tasks: ${json_err}")
endif()
if(NOT tasks EQUAL 1)
  message(FATAL_ERROR "--threads 3 sweep dispatched ${tasks} pool tasks; "
                      "a streamed sweep dispatches exactly 1")
endif()
message(STATUS "digest ${serial} bit-identical at --threads 1 and 3; "
               "1 pool task for 12 blocks")
