# CLI-level distributed digest gate, run as a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P distributed_digest.cmake
#
# Runs the same small sweep single-process, with 0, 1, 2 and 4 worker
# processes, and four more times with 2 workers: once with the
# observability plane fully on (stat and trace shipping plus the fleet
# trace merge), once with --no-obs-ship, once with one-case blocks, where
# every worker queues a second lease behind its running one (the run
# report must count those grants), and once with --threads 6, so each
# worker streams its blocks over a 3-thread pool whatever the host's core
# count. Every printed digest must be bit-identical to
# the single-process one: the coordinator contract for any worker count
# and lease depth, and the proof that shipped telemetry never feeds the
# fold, both observable from the outside with no test hooks.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P distributed_digest.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(SWEEP_ARGS sweep --quiet --regions DE,FR --kinds average --nodes 64
    --jobs 60 --days 1 --replicas 2 --sched easy,carbon-easy --block 4)

function(run_sweep out_var)
  execute_process(
    COMMAND ${CLI} ${SWEEP_ARGS} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  string(REGEX MATCH "digest: ([0-9a-f]+)" _ "${out}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "sweep ${ARGN} printed no digest line:\n${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(expect_single label digest)
  if(NOT digest STREQUAL single)
    message(FATAL_ERROR "distributed sweep digest diverged: single-process "
                        "${single} vs ${label} ${digest}")
  endif()
endfunction()

run_sweep(single)

foreach(workers 0 1 2 4)
  run_sweep(distributed --workers ${workers})
  expect_single("--workers ${workers}" "${distributed}")
endforeach()

set(FLEET_TRACE "${WORKDIR}/fleet.json")
run_sweep(shipping_on --workers 2 --fleet-trace-out "${FLEET_TRACE}")
expect_single("--workers 2 --fleet-trace-out" "${shipping_on}")
if(NOT EXISTS "${FLEET_TRACE}")
  message(FATAL_ERROR "--fleet-trace-out wrote no fleet trace at ${FLEET_TRACE}")
endif()

run_sweep(shipping_off --workers 2 --no-obs-ship)
expect_single("--workers 2 --no-obs-ship" "${shipping_off}")

# One-case blocks: 8 blocks for 2 workers, so the first worker to say
# hello already finds more pending blocks than live workers and gets a
# queued lease.
set(PIPELINED_REPORT "${WORKDIR}/pipelined.json")
run_sweep(pipelined --workers 2 --block 1 --report "${PIPELINED_REPORT}")
expect_single("--workers 2 --block 1" "${pipelined}")
file(READ "${PIPELINED_REPORT}" report_json)
string(JSON prefetched GET "${report_json}" numbers leases_prefetched)
if(NOT prefetched GREATER 0)
  message(FATAL_ERROR "--workers 2 --block 1 queued no second lease "
                      "(leases_prefetched = ${prefetched})")
endif()

# Threaded workers: --threads is split across the workers, so 6 gives
# each worker a pool of 3 threads and its block a multi-threaded loop.
run_sweep(threaded --workers 2 --threads 6)
expect_single("--workers 2 --threads 6" "${threaded}")

message(STATUS "digest ${single} bit-identical single-process, with 0/1/2/4 "
               "workers, with pipelined leases, with obs shipping on and "
               "off, and with 3-thread worker pools")
