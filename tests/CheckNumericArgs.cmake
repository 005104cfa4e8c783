# Runs calibro-dex2oat, calibro-run and calibro-compiled with malformed
# numeric options and job-line fields and fails unless every run exits with
# status 2; one well-formed run of each must exit 0. Usage:
#   cmake -DDEX2OAT=<tool> -DRUN=<tool> -DCOMPILED=<tool>
#         -DWORK=<scratch dir> -P <this>
file(MAKE_DIRECTORY ${WORK})
set(OUT ${WORK}/numeric-args.oat)

function(expect_rc WANT)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE RC
                  OUTPUT_QUIET ERROR_QUIET TIMEOUT 120)
  if(NOT RC EQUAL WANT)
    message(FATAL_ERROR "'${ARGN}' exited with '${RC}', want ${WANT}")
  endif()
endfunction()

foreach(ARGS
    "--scale;abc" "--scale;0" "--scale;-1" "--scale;2x" "--scale;inf"
    "--scale;nan" "--scale;" "--partitions;abc" "--partitions;0"
    "--partitions;-1" "--partitions;4097" "--threads;-3" "--threads;0"
    "--threads;1.5" "--seed;-1" "--seed;12abc" "--seed;0x10"
    "--memory-budget;1e6" "--memory-budget;-5" "--min-len;1"
    "--max-len;x" "--min-len;99999999999" "--scale")
  expect_rc(2 ${DEX2OAT} --cto --ltbo -o ${OUT} ${ARGS})
endforeach()
expect_rc(0 ${DEX2OAT} --cto --ltbo --scale 0.05 --seed 7 --partitions 2
          --threads 2 --memory-budget 100000 --min-len 2 --max-len 32
          -o ${OUT})

# calibro-run on the image just built: --method and every --args value are
# decimal integers >= 0 (a token starting with '-' ends the --args list).
foreach(ARGS
    "--method;abc" "--method;-1" "--method;1.5" "--method;4294967296"
    "--args;abc" "--args;7;x" "--args;12abc"
    "--args;9223372036854775808" "--args;0x10")
  expect_rc(2 ${RUN} ${OUT} ${ARGS})
endforeach()
expect_rc(0 ${RUN} ${OUT} --method 0 --args 7 9)

foreach(ARGS
    "--jobs;0" "--jobs;abc" "--threads;-3" "--queue-depth;x"
    "--cache-budget;-1" "--global-memory-budget;1k"
    "--partitions;0" "--min-len;1")
  expect_rc(2 ${COMPILED} ${ARGS} INPUT_FILE /dev/null)
endforeach()

set(JOBS ${WORK}/numeric-args.jobs)
foreach(FIELDS
    "scale=abc" "scale=0" "scale=-1" "seed=-1" "seed=" "budget=12x"
    "budget=-1")
  file(WRITE ${JOBS} "app=Toutiao ${FIELDS} out=${OUT}\n")
  expect_rc(2 ${COMPILED} --threads 1 INPUT_FILE ${JOBS})
endforeach()
file(WRITE ${JOBS} "app=Toutiao scale=0.05 seed=7 budget=100000 out=${OUT}\n")
expect_rc(0 ${COMPILED} --threads 1 --cto --ltbo INPUT_FILE ${JOBS})
