# Carbon-EASY work-count gate, run as a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P carbon_easy_counts.cmake
#
# Runs the 4-replica carbon-easy slice of the reference grid (EXPERIMENTS.md,
# "Carbon-EASY span attestation") and checks its digest, three engine
# counts and the number of gate signals built (one per trace: 4 regions x
# 2 kinds x 4 replicas) exactly. The counts are deterministic for a given source tree, so
# unlike a wall-time gate this one has no noise: a change that makes
# carbon-EASY evaluate more ticks, end more spans or fence more in-span
# releases fails here on any host. A change that moves a count on purpose
# updates the expected value below and says why in CHANGES.md.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P carbon_easy_counts.cmake")
endif()

set(EXPECTED_DIGEST 4283914bcc472a7f)
set(EXPECTED_sim.ticks 120654)
set(EXPECTED_sim.spans 71255)
set(EXPECTED_sim.release_rides 20475)
set(EXPECTED_sched.carbon.gate_signals_built 32)

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND ${CLI} sweep --quiet --regions DE,FR,PL,NO --kinds average,marginal
          --nodes 64,128 --jobs-list 300,600 --days 7 --replicas 4 --seed 2023
          --sched carbon-easy --threads 1 --metrics-out "${WORKDIR}/metrics.json"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "carbon-easy slice exited ${rc}:\n${out}\n${err}")
endif()
string(REGEX MATCH "digest: ([0-9a-f]+)" _ "${out}")
if(NOT CMAKE_MATCH_1 STREQUAL EXPECTED_DIGEST)
  message(FATAL_ERROR "carbon-easy slice digest '${CMAKE_MATCH_1}', "
                      "expected ${EXPECTED_DIGEST}:\n${out}")
endif()

file(READ "${WORKDIR}/metrics.json" metrics)
set(failures "")
foreach(name sim.ticks sim.spans sim.release_rides sched.carbon.gate_signals_built)
  string(JSON got ERROR_VARIABLE json_err GET "${metrics}" counters ${name})
  if(json_err)
    string(APPEND failures "\n  ${name}: missing from --metrics-out (${json_err})")
  elseif(NOT got EQUAL EXPECTED_${name})
    string(APPEND failures "\n  ${name}: ${got}, expected ${EXPECTED_${name}}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "carbon-easy slice counts moved:${failures}")
endif()
message(STATUS "carbon-easy slice: digest ${EXPECTED_DIGEST}, sim.ticks "
               "${EXPECTED_sim.ticks}, sim.spans ${EXPECTED_sim.spans}, "
               "sim.release_rides ${EXPECTED_sim.release_rides}, gate signals "
               "${EXPECTED_sched.carbon.gate_signals_built}")
