# An export hetflow_run cannot write (/dev/full: every write fails with
# ENOSPC) must fail the run with a message naming the file, not print
# "written to" and exit 0. Run through ctest:
#   cmake -DRUN=<hetflow_run> -P full_disk.cmake
foreach(flag --chrome-trace --decision-log)
  execute_process(
    COMMAND ${RUN} --workflow montage:16 --platform hpc:4,2,0 --sched dmda
            ${flag} /dev/full
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "hetflow_run ${flag} /dev/full exited 0:\n${out}")
  endif()
  if(NOT err MATCHES "failed writing '/dev/full'")
    message(FATAL_ERROR "hetflow_run ${flag} /dev/full exited ${rc} without "
                        "naming the failed write:\n${err}")
  endif()
  if(out MATCHES "written to /dev/full")
    message(FATAL_ERROR "hetflow_run ${flag} /dev/full reported success:\n"
                        "${out}")
  endif()
endforeach()
