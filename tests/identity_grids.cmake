# Byte-identity of the smoke grids across every execution axis that must not
# change results: the fig2/fig3 grids serial vs forced shards 4 and 8, vs
# sketch profiling, and vs sketch profiling at forced shards 4; the
# datacenter grid, fig2 under the frag fault profile and the trace_replay
# grid serial vs forced shards 4. Every pair's JSONL rows are compared byte
# for byte. Fidelity comes from the caller's environment
# (NUMALP_MAX_EPOCHS, NUMALP_ACCESSES_PER_EPOCH, NUMALP_JOBS). Run as
#   cmake -DBIN_DIR=<build dir> -DWORK_DIR=<scratch dir> -P identity_grids.cmake
if(NOT BIN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBIN_DIR=... -DWORK_DIR=... -P identity_grids.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Every run starts from the serial exact engine whatever the caller's
# environment says; each variant adds only its own settings.
set(clean_env --unset=NUMALP_SHARDS --unset=NUMALP_SHARDS_FORCE
              --unset=NUMALP_PROFILE_MODE --unset=NUMALP_FAULT_PROFILE)
set(shard4 NUMALP_SHARDS_FORCE=1 NUMALP_SHARDS=4)
set(shard8 NUMALP_SHARDS_FORCE=1 NUMALP_SHARDS=8)
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
# same_rows(<rows file> <serial dir> <variant dirs...>)
function(same_rows file serial)
  set(found "${mismatches}")
  foreach(variant ${ARGN})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK_DIR}/${serial}/${file} ${WORK_DIR}/${variant}/${file}
                    RESULT_VARIABLE differ)
    if(differ EQUAL 0)
      message(STATUS "identical: ${variant}/${file}")
    else()
      message(STATUS "DIFFERENT: ${variant}/${file} vs ${serial}/${file}")
      string(APPEND found " ${variant}/${file}")
    endif()
  endforeach()
  set(mismatches "${found}" PARENT_SCOPE)
endfunction()

foreach(bench fig2_carrefour2m fig3_carrefour_lp)
  run_grid(serial ${bench})
  run_grid(shard4 ${bench} ENV ${shard4})
  run_grid(shard8 ${bench} ENV ${shard8})
  run_grid(sketch ${bench} ENV ${sketch})
  run_grid(sketch_shard4 ${bench} ENV ${sketch} ${shard4})
endforeach()
foreach(file fig2.jsonl fig3.jsonl)
  same_rows(${file} serial shard4 shard8 sketch sketch_shard4)
endforeach()

run_grid(dc_serial datacenter)
run_grid(dc_shard4 datacenter ENV ${shard4})
same_rows(datacenter.jsonl dc_serial dc_shard4)

run_grid(frag_serial fig2_carrefour2m ARGS --fault-profile frag)
run_grid(frag_shard4 fig2_carrefour2m ENV ${shard4} ARGS --fault-profile frag)
same_rows(fig2.jsonl frag_serial frag_shard4)

set(trace_args --trace-dir ${WORK_DIR}/traces --trace-epochs 10)
run_grid(trace_serial trace_replay ARGS ${trace_args})
run_grid(trace_shard4 trace_replay ENV ${shard4} ARGS ${trace_args})
same_rows(trace.jsonl trace_serial trace_shard4)

if(mismatches)
  message(FATAL_ERROR "rows differ across execution axes:${mismatches}")
endif()
