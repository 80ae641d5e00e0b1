# `cirstag_cli analyze missing.ckt <flag> <value>` must exit 2 and name the
# flag for a retired flag. The netlist does not exist, so a load error
# (exit 1) would mean the option check ran too late.
function(expect_rejected flag value)
  execute_process(COMMAND ${CLI} analyze missing.ckt ${flag} ${value}
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

expect_rejected(--block-cg 1)
expect_rejected(--profile-hz 100)
expect_rejected(--coarsen-levels 12)
expect_rejected(--coarsen-threshold 20000)
