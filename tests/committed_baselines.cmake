# The committed full-fidelity summaries are asserted artifacts: every paper
# check must hold on each BENCH_*.json as committed, so a regenerated
# baseline that quietly broke a reproduced effect fails here. A summary with
# a malformed value must be rejected with exit status 2, naming the line
# and the key. Run by ctest as
#   cmake -DNUMALP_REPORT=... -DSOURCE_DIR=... -DWORK_DIR=... -P <this file>
# (csv format sends the aggregate tables to stdout, discarded here, and the
# PASS/FAIL check lines to stderr, so a failure names its check.)
foreach(baseline BENCH_fig2_fig3.json BENCH_faults.json BENCH_datacenter.json
                 BENCH_trace.json)
  execute_process(COMMAND ${NUMALP_REPORT} --from-summary ${SOURCE_DIR}/${baseline}
                          --format csv --check
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE checks)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${baseline}: expected exit 0, got ${status}\n${checks}")
  endif()
  message(STATUS "${baseline}:\n${checks}")
endforeach()

file(READ ${SOURCE_DIR}/BENCH_fig2_fig3.json contents)
string(REPLACE "\"runs\":3" "\"runs\":abc" contents "${contents}")
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/malformed_summary.json "${contents}")
execute_process(COMMAND ${NUMALP_REPORT} --from-summary ${WORK_DIR}/malformed_summary.json
                        --format csv --check
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(NOT status EQUAL 2 OR NOT errors MATCHES "line 4: bad value for \"runs\"")
  message(FATAL_ERROR "malformed summary: expected exit 2 naming line 4 and \"runs\", "
                      "got ${status}\n${errors}")
endif()
message(STATUS "malformed summary: rejected (exit 2): ${errors}")
