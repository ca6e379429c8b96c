# numalp_run must reject malformed or out-of-range numeric flags, and
# environment knobs with values the matching flag would reject, with usage
# and exit status 2 instead of running on a silently misparsed or ignored
# value. Run by ctest as
#   cmake -DNUMALP_RUN=... -P <this file>
set(bad_args
    "--epochs abc"
    "--epochs -3"
    "--seed 1x"
    "--accesses 0"
    "--fault-alloc-pct 250"
    "--cell-deadline-ms 9223372036854775807")
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

# The same checks for environment knobs. The run itself is tiny, so a
# binary that ignored the bad value would finish with exit 0, not 2.
set(bad_env
    "NUMALP_MAX_EPOCHS=abc"
    "NUMALP_FAULT_ALLOC_PCT=250"
    "NUMALP_PROFILE_MODE=bogus"
    "NUMALP_FAULT_PROFILE=bogus"
    "NUMALP_JOBS=abc"
    "NUMALP_CELL_RETRIES=-2"
    "NUMALP_CELL_DEADLINE_MS=5x"
    "NUMALP_CELL_DEADLINE_MS=9223372036854775807")
foreach(shown IN LISTS bad_env)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${shown}
                          ${NUMALP_RUN} --workload CG.D --machine A --epochs 2 --accesses 64
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE errors)
  string(REGEX REPLACE "=.*" "" name "${shown}")
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${shown} numalp_run: expected exit 2, got ${status}\n${errors}")
  endif()
  if(NOT errors MATCHES "${name}")
    message(FATAL_ERROR "${shown} numalp_run: the error does not name ${name}\n${errors}")
  endif()
  message(STATUS "${shown} numalp_run: rejected (exit 2)")
endforeach()

# Control: well-formed values of the same flags and knobs still run.
execute_process(COMMAND ${CMAKE_COMMAND} -E env NUMALP_MAX_EPOCHS=3 NUMALP_FAULT_ALLOC_PCT=25
                        NUMALP_PROFILE_MODE=sketch NUMALP_FAULT_PROFILE=frag
                        NUMALP_JOBS=2 NUMALP_CELL_RETRIES=0 NUMALP_CELL_DEADLINE_MS=600000
                        ${NUMALP_RUN} --workload CG.D --machine A --epochs 2 --seed 7
                        --accesses 64 --fault-alloc-pct 25
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "numalp_run with valid numeric flags and knobs: expected exit 0, got ${status}\n${errors}")
endif()
