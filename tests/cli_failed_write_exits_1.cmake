# A requested artifact that cannot be written fails the run: `analyze` with
# its perf report or metrics document sent to /dev/full must exit 1 and name
# the path on stderr.
if(NOT EXISTS /dev/full)
  return()
endif()
execute_process(COMMAND ${CLI} generate failed_write.ckt --gates 40 --seed 3
                OUTPUT_QUIET)
foreach(flag --perf-json --metrics-json)
  execute_process(COMMAND ${CLI} analyze failed_write.ckt --epochs 1
                          --hidden 4 ${flag} /dev/full
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "/dev/full" pos)
  if(NOT rc EQUAL 1 OR pos EQUAL -1)
    message(FATAL_ERROR "${flag} /dev/full: expected exit 1 naming the path, "
                        "got '${rc}'\nstderr: ${err}")
  endif()
endforeach()
