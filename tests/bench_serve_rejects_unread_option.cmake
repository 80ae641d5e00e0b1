# `bench_serve --mode inproc ... <flag> <value>` must exit 2 and name the
# flag when the mode does not read it. The check runs before the mode
# generates, trains or serves anything; a run that starts working instead is
# cut by the TIMEOUT.
function(expect_rejected flag value)
  execute_process(COMMAND ${BENCH_SERVE} --mode inproc --gates 60 --epochs 5
                          --requests 16 ${flag} ${value}
                  TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag}: expected exit 2, got '${rc}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "error output does not name ${flag}:\n${err}")
  endif()
endfunction()

expect_rejected(--slow-budget 8)  # retired
expect_rejected(--request 48)     # misspelt --requests
