# `cirstag_cli <command> ... <flag> <value>` must exit 2 and name the flag
# for a retired flag. The netlist the other commands get does not exist, so
# a load error (exit 1) would mean the option check ran too late; a serve
# daemon that starts listening instead is cut by the TIMEOUT.
function(expect_rejected command flag value)
  if(command STREQUAL "serve")
    set(args serve)
  else()
    set(args ${command} missing.ckt)
  endif()
  execute_process(COMMAND ${CLI} ${args} ${flag} ${value}
                  TIMEOUT 10
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command} ${flag}: expected exit 2, got '${rc}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "error output does not name ${flag}:\n${err}")
  endif()
endfunction()

expect_rejected(analyze --block-cg 1)
expect_rejected(analyze --profile-hz 100)
expect_rejected(analyze --coarsen-levels 12)
expect_rejected(analyze --coarsen-threshold 20000)
expect_rejected(analyze --health 1)
expect_rejected(analyze --simd off)
expect_rejected(analyze --probes 24)
expect_rejected(analyze --solver-precond jacobi)
expect_rejected(sweep --audit-drift 1)
expect_rejected(serve --slow-budget 8)
