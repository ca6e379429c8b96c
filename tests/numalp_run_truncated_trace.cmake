# numalp_run on a truncated trace must reject it cleanly: an error message
# and exit status 2, never an abort. Run by ctest as
#   cmake -DTRACEGEN=... -DNUMALP_RUN=... -DWORK_DIR=... -P <this file>
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${TRACEGEN} --profile ckpt-churn --out ${WORK_DIR}/full.trace
                        --epochs 2 --accesses 64
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "numalp_tracegen failed: ${status}")
endif()
# 30 bytes: magic, version and the header chunk's frame, cut into its payload.
execute_process(COMMAND head -c 30 ${WORK_DIR}/full.trace
                OUTPUT_FILE ${WORK_DIR}/truncated.trace
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "truncating the trace failed: ${status}")
endif()
execute_process(COMMAND ${NUMALP_RUN} --workload trace:${WORK_DIR}/truncated.trace
                        --machine A
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "numalp_run on a truncated trace: expected exit 2, got ${status}\n${errors}")
endif()
message(STATUS "numalp_run rejected the truncated trace: ${errors}")
