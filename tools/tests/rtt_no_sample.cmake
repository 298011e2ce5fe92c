# CLI-level check that a fleet run without an RTT sample says so, run as
# a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P rtt_no_sample.cmake
#
# The coordinator samples the obs-line round trip from heartbeat `stat`
# lines and from `trace` batches. A stats-only 2-worker sweep (shipping
# on, no fleet trace) that ends well inside one heartbeat interval takes
# no sample, so its percentiles measure nothing: the `fleet:` line must
# print `rtt n/a`, and the run report must count 0 samples and leave out
# heartbeat_rtt_p50_s and heartbeat_rtt_p99_s instead of reporting 0 s.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P rtt_no_sample.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(REPORT "${WORKDIR}/report.json")
execute_process(
  COMMAND ${CLI} sweep --quiet --regions DE,FR --kinds average --nodes 16
          --jobs 20 --days 1 --replicas 2 --sched fcfs --block 2
          --workers 2 --hb-interval 60 --hb-timeout 600 --report "${REPORT}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep exited ${rc}:\n${out}\n${err}")
endif()
if(NOT err MATCHES "fleet: [^\n]*rtt n/a")
  message(FATAL_ERROR "the fleet line does not print `rtt n/a`:\n${err}")
endif()
file(READ "${REPORT}" report_json)
string(JSON samples GET "${report_json}" numbers heartbeat_rtt_samples)
if(NOT samples EQUAL 0)
  message(FATAL_ERROR "heartbeat_rtt_samples = ${samples}, expected 0")
endif()
foreach(key heartbeat_rtt_p50_s heartbeat_rtt_p99_s)
  string(JSON value ERROR_VARIABLE missing GET "${report_json}" numbers ${key})
  if(NOT missing)
    message(FATAL_ERROR "the report has ${key} = ${value} without an RTT sample")
  endif()
endforeach()
message(STATUS "no RTT sample: `rtt n/a` printed, percentile keys left out")
