# CLI guard on the integer sweep flags, run as a ctest:
#   cmake -DCLI=<greenhpc binary> -DWORKDIR=<scratch dir> -P block_guard.cmake
#
# `sweep` and `sweep-worker` must refuse a --block that is not a positive
# whole number and a --retries below 0 or above INT_MAX, and `chaos` such a
# --block, with exit status 2 and a message naming the flag, before any case
# runs: the block becomes a std::size_t and the retries an int, so a value
# out of their range must never reach that conversion.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORKDIR=... -P block_guard.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(GRID --quiet --regions DE --kinds average --nodes 16 --jobs 10 --days 1
    --replicas 1 --sched fcfs)

function(expect_refused command flag value)
  execute_process(
    COMMAND ${CLI} ${command} ${GRID} --${flag} ${value}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--${flag} wants a whole number")
    message(FATAL_ERROR "${command} --${flag} ${value} must exit 2 with a message "
                        "(rc=${rc}):\n${err}")
  endif()
  if(out MATCHES "digest:")
    message(FATAL_ERROR "${command} --${flag} ${value} ran the sweep:\n${out}")
  endif()
endfunction()

foreach(command sweep sweep-worker)
  foreach(value -1 0 abc 4x 2.5)
    expect_refused(${command} block ${value})
  endforeach()
  expect_refused(${command} retries -1)
  expect_refused(${command} retries 4294967295)
  expect_refused(${command} retries many)
endforeach()
expect_refused(chaos block -1)
expect_refused(chaos block abc)

# Well-formed values still run the sweep to its digest.
execute_process(
  COMMAND ${CLI} sweep ${GRID} --block 1 --retries 0
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "digest:")
  message(FATAL_ERROR "sweep --block 1 --retries 0 must run (rc=${rc}):\n${out}\n${err}")
endif()
