# Saves the audit snapshot of one hetflow_run (--audit-out) for a
# workflow that moves data between host and GPU memory, then audits the
# file offline with hetflow_check --audit. Run through ctest:
#   cmake -DRUN=<hetflow_run> -DCHECK=<hetflow_check> -DOUT=<prefix>
#         -P audit_roundtrip.cmake
execute_process(
  COMMAND ${RUN} --workflow montage:16 --platform hpc:4,2,0 --sched dmda
          --audit-out ${OUT}.audit.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hetflow_run failed (${rc}): ${err}")
endif()
execute_process(COMMAND ${CHECK} --audit ${OUT}.audit.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hetflow_check --audit ${OUT}.audit.json exited ${rc}:\n"
                      "${out}${err}")
endif()
