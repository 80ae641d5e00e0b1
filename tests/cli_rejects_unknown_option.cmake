# `cirstag_cli analyze missing.ckt --block-cg 1` must exit 2 and name the
# retired flag. The netlist does not exist, so a load error (exit 1) would
# mean the option check ran too late.
execute_process(COMMAND ${CLI} analyze missing.ckt --block-cg 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "expected exit 2, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "--block-cg" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "error output does not name --block-cg:\n${err}")
endif()
