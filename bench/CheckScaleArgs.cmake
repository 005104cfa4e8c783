# Runs ${BENCH} with each malformed scale argument list and fails unless
# every run exits with status 2. Usage: cmake -DBENCH=<harness> -P <this>
foreach(ARGS "--scale;8" "abc" "0" "-1" "2x" "inf" "nan" "1;2")
  execute_process(COMMAND ${BENCH} ${ARGS} RESULT_VARIABLE RC
                  OUTPUT_QUIET ERROR_QUIET TIMEOUT 60)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "'${BENCH} ${ARGS}' exited with '${RC}', want 2")
  endif()
endforeach()
