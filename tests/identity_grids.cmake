# Byte-identity of the smoke grids across every execution axis that must not
# change results: the fig2/fig3 grids with exact vs sketch profiling, and
# the datacenter grid, fig2 under the frag fault profile and the
# trace_replay grid at --jobs 1 vs --jobs 4. Every pair's JSONL rows are
# compared byte for byte. Fidelity comes from the caller's environment
# (NUMALP_MAX_EPOCHS, NUMALP_ACCESSES_PER_EPOCH, NUMALP_JOBS). Run as
#   cmake -DBIN_DIR=<build dir> -DWORK_DIR=<scratch dir> -P identity_grids.cmake
if(NOT BIN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBIN_DIR=... -DWORK_DIR=... -P identity_grids.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Every run starts from exact profiling without faults whatever the caller's
# environment says; each variant adds only its own settings.
set(clean_env --unset=NUMALP_PROFILE_MODE --unset=NUMALP_FAULT_PROFILE)
set(sketch NUMALP_PROFILE_MODE=sketch)

# run_grid(<variant dir> <binary> ENV <env...> ARGS <args...>)
function(run_grid dir binary)
  cmake_parse_arguments(RUN "" "" "ENV;ARGS" ${ARGN})
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${clean_env} ${RUN_ENV}
                          ${BIN_DIR}/${binary} ${RUN_ARGS}
                          --out-dir ${WORK_DIR}/${dir} --format jsonl
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE errors)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${binary} (${dir}) failed with ${status}\n${errors}")
  endif()
endfunction()

set(mismatches "")
# same_rows(<rows file> <reference dir> <variant dirs...>)
function(same_rows file reference)
  set(found "${mismatches}")
  foreach(variant ${ARGN})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK_DIR}/${reference}/${file} ${WORK_DIR}/${variant}/${file}
                    RESULT_VARIABLE differ)
    if(differ EQUAL 0)
      message(STATUS "identical: ${variant}/${file}")
    else()
      message(STATUS "DIFFERENT: ${variant}/${file} vs ${reference}/${file}")
      string(APPEND found " ${variant}/${file}")
    endif()
  endforeach()
  set(mismatches "${found}" PARENT_SCOPE)
endfunction()

foreach(bench fig2_carrefour2m fig3_carrefour_lp)
  run_grid(exact ${bench})
  run_grid(sketch ${bench} ENV ${sketch})
endforeach()
foreach(file fig2.jsonl fig3.jsonl)
  same_rows(${file} exact sketch)
endforeach()

run_grid(dc_jobs1 datacenter ARGS --jobs 1)
run_grid(dc_jobs4 datacenter ARGS --jobs 4)
same_rows(datacenter.jsonl dc_jobs1 dc_jobs4)

run_grid(frag_jobs1 fig2_carrefour2m ARGS --fault-profile frag --jobs 1)
run_grid(frag_jobs4 fig2_carrefour2m ARGS --fault-profile frag --jobs 4)
same_rows(fig2.jsonl frag_jobs1 frag_jobs4)

set(trace_args --trace-dir ${WORK_DIR}/traces --trace-epochs 10)
run_grid(trace_jobs1 trace_replay ARGS ${trace_args} --jobs 1)
run_grid(trace_jobs4 trace_replay ARGS ${trace_args} --jobs 4)
same_rows(trace.jsonl trace_jobs1 trace_jobs4)

if(mismatches)
  message(FATAL_ERROR "rows differ across execution axes:${mismatches}")
endif()
