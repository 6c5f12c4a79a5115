# Writes both Chrome traces of one hetflow_run (--trace-json and
# --chrome-trace) for a workflow that moves data between host and GPU
# memory, then audits each with hetflow_check --trace. Run through ctest:
#   cmake -DRUN=<hetflow_run> -DCHECK=<hetflow_check> -DOUT=<prefix>
#         -P trace_roundtrip.cmake
execute_process(
  COMMAND ${RUN} --workflow montage:16 --platform hpc:4,2,0 --sched dmda
          --trace-json ${OUT}.trace.json --chrome-trace ${OUT}.chrome.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hetflow_run failed (${rc}): ${err}")
endif()
file(READ ${OUT}.chrome.json merged)
string(FIND "${merged}" "\"xfer " transfer_track)
if(transfer_track EQUAL -1)
  message(FATAL_ERROR "${OUT}.chrome.json has no transfer track")
endif()
foreach(trace ${OUT}.trace.json ${OUT}.chrome.json)
  execute_process(COMMAND ${CHECK} --trace ${trace}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hetflow_check --trace ${trace} exited ${rc}:\n"
                        "${out}${err}")
  endif()
endforeach()
