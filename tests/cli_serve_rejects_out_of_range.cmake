# `cirstag_cli serve` must refuse a --port outside [0, 65535], a
# --deadline-ms outside [1, 86400000], and a --threads or --workers above
# runtime::kMaxThreads (1024) with exit 2, naming the option, before it opens
# its listener or starts a thread. A daemon that starts serving instead (a
# value that wrapped in a narrowing cast, or a thread count nothing bounds)
# is cut by the TIMEOUT and fails the test.
function(expect_rejected flag value)
  execute_process(COMMAND ${CLI} serve ${flag} ${value}
                  TIMEOUT 10
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: expected exit 2, got '${rc}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "error output does not name ${flag}:\n${err}")
  endif()
endfunction()

expect_rejected(--port 70000)
expect_rejected(--port -1)
expect_rejected(--deadline-ms 0)
expect_rejected(--deadline-ms 86400001)
expect_rejected(--deadline-ms 4294967296)
expect_rejected(--deadline-ms -5)
expect_rejected(--threads 1025)
expect_rejected(--threads 99999999999999999999)
expect_rejected(--workers 1025)
expect_rejected(--workers 4294967296)
