# numalp_run must reject malformed or out-of-range numeric flags with usage
# and exit status 2 instead of running on a silently misparsed value. Run by
# ctest as
#   cmake -DNUMALP_RUN=... -P <this file>
set(bad_args
    "--epochs abc"
    "--epochs -3"
    "--seed 1x"
    "--accesses 0"
    "--fault-alloc-pct 250")
foreach(shown IN LISTS bad_args)
  separate_arguments(args UNIX_COMMAND "${shown}")
  execute_process(COMMAND ${NUMALP_RUN} --workload CG.D --machine A ${args}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE errors)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "numalp_run ${shown}: expected exit 2, got ${status}\n${errors}")
  endif()
  message(STATUS "numalp_run ${shown}: rejected (exit 2)")
endforeach()

# Control: well-formed values of the same flags still run.
execute_process(COMMAND ${NUMALP_RUN} --workload CG.D --machine A --epochs 2 --seed 7
                        --accesses 64 --fault-alloc-pct 25
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "numalp_run with valid numeric flags: expected exit 0, got ${status}\n${errors}")
endif()
